package main

import (
	"fmt"
	"strings"
	"testing"

	"oselmrl/internal/obs/slo"
)

// accessLine renders one serve_access JSONL line at wallMS.
func accessLine(wallMS float64, status int, queueMS, evalMS, totalMS float64, shed, timeout int) string {
	return fmt.Sprintf(`{"type":"serve_access","seq":1,"wall_ms":%g,`+
		`"data":{"status":%d,"queue_ms":%g,"eval_ms":%g,"total_ms":%g,"generation":1,"shed":%d,"timeout":%d},`+
		`"labels":{"trace":"4bf92f3577b34da6a3ce929d0e0e4736","route":"/v1/predict"}}`,
		wallMS, status, queueMS, evalMS, totalMS, shed, timeout) + "\n"
}

func TestReplaySLO(t *testing.T) {
	var log strings.Builder
	// 100 fast OK requests in the first minute, then 10 shed.
	for i := 0; i < 100; i++ {
		log.WriteString(accessLine(float64(i)*10, 200, 0.01, 0.02, 0.05, 0, 0))
	}
	for i := 0; i < 10; i++ {
		log.WriteString(accessLine(1000+float64(i)*10, 429, 0.5, 0, 0.5, 1, 0))
	}
	log.WriteString(accessLine(1200, 400, 0.01, 0.02, 0.05, 0, 0)) // client error
	log.WriteString(accessLine(1250, 500, 0.01, 0.02, 0.05, 0, 0)) // server error
	log.WriteString(`{"type":"episode_end","seq":9,"wall_ms":1300,"data":{"steps":10}}` + "\n")

	rep, total, err := replaySLO(strings.NewReader(log.String()),
		slo.Objectives{LatencyP99MS: 100, Availability: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if total != 112 {
		t.Fatalf("replayed %d events, want 112 (non-access events skipped)", total)
	}
	if rep.OK != 100 || rep.Shed != 10 || rep.ClientErrors != 1 || rep.ServerErrors != 1 {
		t.Fatalf("outcomes %+v", rep)
	}
	// 11 bad (10 shed, 1 server error) out of 111 eligible against a
	// 0.1% budget: burn way past 1.
	if b := rep.Overall.Availability; b == nil || b.Bad != 11 || b.Rate < 1 {
		t.Fatalf("availability burn %+v", b)
	}
	if br := slo.GateBreaches(rep); len(br) != 1 || br[0] != "availability" {
		t.Fatalf("breaches %v", br)
	}
	if rep.EvalMS.N != 102 {
		t.Errorf("eval distribution must exclude shed requests: %+v", rep.EvalMS)
	}
}

// Replay drives window rotation from the log's own clock: requests an
// hour apart (by wall_ms) land in different windows.
func TestReplaySLOVirtualClock(t *testing.T) {
	var log strings.Builder
	for i := 0; i < 30; i++ {
		log.WriteString(accessLine(float64(i), 200, 0.1, 0.1, 500, 0, 0)) // all slow
	}
	// One fast request 2 hours later: the windows have rotated past the
	// slow burst by then.
	log.WriteString(accessLine(2*3600*1000, 200, 0.01, 0.02, 0.05, 0, 0))

	rep, _, err := replaySLO(strings.NewReader(log.String()), slo.Objectives{LatencyP99MS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlowRequests != 30 {
		t.Fatalf("slow = %d", rep.SlowRequests)
	}
	if b := rep.Window5m.Latency; b == nil || b.Requests != 1 || b.Rate != 0 {
		t.Errorf("final 5m window must only hold the late request: %+v", b)
	}
	if b := rep.Overall.Latency; b == nil || b.Rate < 1 {
		t.Errorf("overall burn must remember the burst: %+v", b)
	}
}

func TestReplaySLOEmptyLog(t *testing.T) {
	if _, _, err := replaySLO(strings.NewReader(""), slo.Objectives{}); err == nil {
		t.Fatal("empty log must error")
	}
	noAccess := `{"type":"episode_end","seq":1,"wall_ms":5,"data":{"steps":3}}` + "\n"
	if _, _, err := replaySLO(strings.NewReader(noAccess), slo.Objectives{}); err == nil {
		t.Fatal("log without serve_access events must error")
	}
}
