package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"oselmrl/internal/obs"
)

// DefaultTenant is the tenant name the unprefixed /v1/* routes serve.
// Config.Checkpoint registers its policy under this name; a service
// configured with exactly one named policy also serves it on the bare
// routes for convenience.
const DefaultTenant = "default"

// Tenant is one named, independently hot-reloadable policy: its own
// checkpoint source, atomic *Policy pointer (the same zero-drop swap the
// single-policy service used), optional request quota, optional
// micro-batcher, and a precomputed set of tenant-labeled metric keys so
// the per-request accounting path never rebuilds label strings.
type Tenant struct {
	name   string
	source string
	policy atomic.Pointer[Policy]
	batch  *batcher
	quota  *tokenBucket

	// Labeled registry keys (obs.Labeled(name, "tenant", t.name)); the
	// export layer renders them as Prometheus labels.
	mReq, mOK, mErr, mShed, mTimeout, mQuota string
	mReloads, mReloadErr, gGen, hBatch       string
	mPanics                                  string
}

func newTenant(name, source string) *Tenant {
	lbl := func(metric string) string { return obs.Labeled(metric, "tenant", name) }
	return &Tenant{
		name:       name,
		source:     source,
		mReq:       lbl(MetricRequests),
		mOK:        lbl(MetricOK),
		mErr:       lbl(MetricErrors),
		mShed:      lbl(MetricShed),
		mTimeout:   lbl(MetricTimeout),
		mQuota:     lbl(MetricQuotaDenied),
		mReloads:   lbl(MetricReloads),
		mReloadErr: lbl(MetricReloadErrors),
		gGen:       lbl(GaugeGeneration),
		hBatch:     lbl(HistBatchSize),
		mPanics:    lbl(MetricPanics),
	}
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Policy returns the tenant's currently served policy.
func (t *Tenant) Policy() *Policy { return t.policy.Load() }

// Source returns the tenant's checkpoint path.
func (t *Tenant) Source() string { return t.source }

// tokenBucket is a minimal per-tenant rate limiter: sustained rate tokens
// per second with burst max(rate, 1). It is taken on every request of a
// quota'd tenant, so it stays a single short critical section.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rps float64) *tokenBucket {
	burst := rps
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rps, burst: burst, tokens: burst, last: time.Now()}
}

// allow spends one token if available; on denial it reports how long
// until the next token refills — the Retry-After hint for quota 429s.
func (b *tokenBucket) allow(now time.Time) (ok bool, retryIn time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
