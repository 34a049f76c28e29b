// Command fpgares regenerates paper Table 3: FPGA resource utilization of
// the OS-ELM Q-Network core on the PYNQ-Z1's xc7z020 device for hidden
// widths 32..256, extended with the datapath's modelled throughput
// (cycles per predict / per seq_train update and updates/s at 125 MHz)
// next to each row, and a fleet-headroom projection: how many replicated
// cores the device's binding resource admits (fpga.CoresPerDevice) and
// the aggregate updates/s the discrete-event fleet simulator models for
// the fully replicated device — busy fractions and speedup come from
// internal/fleet's shared-dispatcher schedule, not from single-core
// occupancy alone. It is the regeneration target for experiment E2 in
// DESIGN.md.
//
// The fleet subcommand emits the headline modelled-speedup artifact:
// 1→N-core speedup tables (N capped by the resource estimator) for the
// population-training and batched-inference workloads.
//
// Usage:
//
//	go run ./cmd/fpgares [-hidden 32,64,128,192,256] [-inputs 5]
//	go run ./cmd/fpgares fleet [-hidden 64] [-inputs 5] [-members 0] [-steps 16] [-batch 256] [-cores 0]
package main

import (
	"flag"
	"fmt"
	"os"

	"oselmrl/internal/cli"
	"oselmrl/internal/fleet"
	"oselmrl/internal/fpga"
)

// clockHz is the programmable-logic clock the paper's core runs at.
const clockHz = 125e6

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		os.Exit(fleetMain(os.Args[2:]))
	}
	hiddenFlag := flag.String("hidden", "32,64,128,192,256", "comma-separated hidden widths")
	inputs := flag.Int("inputs", 5, "network input size (states + action; 5 for CartPole)")
	flag.Parse()

	sizes, err := cli.ParseIntList(*hiddenFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpgares:", err)
		os.Exit(2)
	}

	fmt.Printf("Paper Table 3 — FPGA resource utilization of the OS-ELM Q-Network core\n")
	fmt.Printf("Device: %s (BRAM36 %d, DSP48 %d, FF %d, LUT %d)\n\n",
		fpga.XC7Z020.Name, fpga.XC7Z020.BRAM36, fpga.XC7Z020.DSP48,
		fpga.XC7Z020.FF, fpga.XC7Z020.LUT)
	fmt.Printf("%-6s %-10s %-10s %-10s %-10s %-12s %-12s %-10s\n",
		"Units", "BRAM [%]", "DSP [%]", "FF [%]", "LUT [%]", "cyc/predict", "cyc/update", "updates/s")
	for _, n := range sizes {
		u := fpga.EstimateResources(*inputs, n)
		if !u.Feasible {
			fmt.Printf("%-6d %-10s %-10s %-10s %-10s  (does not fit: needs %d BRAM36)\n",
				n, "-", "-", "-", "-", u.BRAM36)
			continue
		}
		b, d, f, l := u.Percent(fpga.XC7Z020)
		kc := fpga.AnalyticKernelCosts(*inputs, n, 1, fpga.DefaultCycleModel())
		p, s := kc[fpga.KernelPredict], kc[fpga.KernelSeqTrain]
		fmt.Printf("%-6d %-10.2f %-10.2f %-10.2f %-10.2f %-12d %-12d %-10.0f\n",
			n, b, d, f, l, p, s, clockHz/float64(s))
	}
	fmt.Println("(cyc/update is one seq_train invocation; updates/s is the pure-PL rate at 125 MHz)")

	fmt.Println("\nFirst-principles memory map (P + transposed copy, cyclic x4, double-buffered):")
	for _, n := range sizes {
		m, err := fpga.CoreMemoryMap(*inputs, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpgares:", err)
			os.Exit(1)
		}
		fit := "fits"
		if m.TotalBRAM36() > fpga.XC7Z020.BRAM36 {
			fit = "DOES NOT FIT"
		}
		fmt.Printf("  %4d units: %3d BRAM36 + %6d LUTRAM bits (%s)\n",
			n, m.TotalBRAM36(), m.TotalLUTBits(), fit)
	}

	fmt.Println("\nDatapath cycle counts (predict / seq_train) at 125 MHz:")
	for _, n := range sizes {
		u := fpga.EstimateResources(*inputs, n)
		if !u.Feasible {
			continue
		}
		kc := fpga.AnalyticKernelCosts(*inputs, n, 1, fpga.DefaultCycleModel())
		p, s := kc[fpga.KernelPredict], kc[fpga.KernelSeqTrain]
		fmt.Printf("  %4d units: predict %7d cycles (%.1f us)   seq_train %9d cycles (%.1f us)\n",
			n, p, float64(p)/125.0, s, float64(s)/125.0)
	}

	fmt.Println("\nFleet headroom — replicated cores per xc7z020 (one agent per core, fleet-simulated):")
	for _, n := range sizes {
		u := fpga.EstimateResources(*inputs, n)
		if !u.Feasible {
			fmt.Printf("  %4d units: 0 cores (a single core does not fit)\n", n)
			continue
		}
		p := fleet.ProjectHeadroom(*inputs, n, fleet.Config{})
		fmt.Printf("  %4d units: %3d cores (bound by %s)  busy %.3f  speedup %6.2f  %7.0f upd/s/core  => %9.0f upd/s/device\n",
			n, p.Cores, p.Binding, p.BusyMean, p.Speedup, p.UpdatesPerSecCore, p.UpdatesPerSecDevice)
	}
	fmt.Println("(busy and speedup from the discrete-event fleet simulator: N cores sharing one")
	fmt.Println(" serialized dispatcher, 8 us per kernel dispatch — the Amdahl fraction that keeps")
	fmt.Println(" upd/s/device below cores x upd/s/core)")
}

// fleetMain implements the fleet subcommand: the 1→N modelled-speedup
// curves for population training and batched inference at one design
// point, N capped by the resource estimator.
func fleetMain(args []string) int {
	fs := flag.NewFlagSet("fpgares fleet", flag.ExitOnError)
	hidden := fs.Int("hidden", 64, "hidden width of each core")
	inputs := fs.Int("inputs", 5, "network input size (states + action; 5 for CartPole)")
	members := fs.Int("members", 0, "population members for the training workload (0: one per admitted core)")
	steps := fs.Int("steps", 16, "RL transitions per member (2 predicts + 1 seq_train each)")
	batch := fs.Int("batch", 256, "independent predicts in the batched-inference workload")
	cores := fs.Int("cores", 0, "sweep 1..cores (0: up to the resource estimator's cap)")
	dispatch := fs.Int64("dispatch", 0, "dispatch cost in cycles per issued kernel (0: the 8 us AXI handshake = 1000)")
	fs.Parse(args)

	u := fpga.EstimateResources(*inputs, *hidden)
	if !u.Feasible {
		fmt.Fprintf(os.Stderr, "fpgares fleet: a %d-unit core does not fit %s (needs %d BRAM36)\n",
			*hidden, fpga.XC7Z020.Name, u.BRAM36)
		return 1
	}
	cap, binding := fpga.CoresPerDevice(u, fpga.XC7Z020)
	maxCores := *cores
	if maxCores <= 0 || maxCores > cap {
		maxCores = cap
	}
	nMembers := *members
	if nMembers <= 0 {
		nMembers = maxCores
	}
	costs := fpga.AnalyticKernelCosts(*inputs, *hidden, 1, fpga.DefaultCycleModel())
	cfg := fleet.Config{DispatchCycles: *dispatch}

	fmt.Printf("Fleet speedup — modelled 1→N cores on %s (shared dispatcher)\n", fpga.XC7Z020.Name)
	fmt.Printf("%d units: %s admits %d cores (bound by %s); sweeping 1..%d\n\n",
		*hidden, fpga.XC7Z020.Name, cap, binding, maxCores)

	fmt.Printf("Population training — %d members x %d transitions (2 predicts + 1 seq_train each):\n",
		nMembers, *steps)
	train := fleet.SpeedupCurve(fleet.PopulationTraining(nMembers, *steps, costs), cfg, maxCores)
	fmt.Print(fleet.FormatSpeedupTable(train))

	fmt.Printf("\nBatched inference — %d independent predicts:\n", *batch)
	infer := fleet.SpeedupCurve(fleet.BatchedInference(*batch, costs), cfg, maxCores)
	fmt.Print(fleet.FormatSpeedupTable(infer))

	fmt.Println("\n(speedup is serialized-reference time over fleet makespan; the dispatcher")
	fmt.Println(" serializes one kernel issue per 8 us, which saturates both curves)")
	return 0
}
