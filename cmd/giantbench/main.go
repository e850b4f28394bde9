// Command giantbench regenerates the paper's performance tables and
// figures: Table 2 (with the ablation columns), Figure 10 and Figure 11.
//
// Usage:
//
//	giantbench -exp table2 [-scale N] [-reps N]
//	giantbench -exp ablation
//	giantbench -exp fig10
//	giantbench -exp fig11
//	giantbench -exp hotpath [-hotpath-out BENCH_hotpath.json]
//	giantbench -exp metapath [-metapath-out BENCH_metapath.json]
//	giantbench -exp tiers [-tiers-out BENCH_tiers.json] [-tiers-check]
//	giantbench -exp shards [-shards-out BENCH_shards.json] [-shards-check]
//	giantbench -exp federation [-federation-out BENCH_federation.json] [-federation-check]
//	giantbench -exp canary [-canary-programs N] [-canary-plant NAME]
//	giantbench -exp fuzz [-fuzz-out BENCH_fuzz.json] [-fuzz-check]
//	giantbench -exp all
//
// -hotpath is shorthand for -exp hotpath: it microbenchmarks the checker
// hot paths (ns/check and shadow-loads/check per sanitizer × access shape,
// including the reference-path rows the speedup is measured against) and
// writes BENCH_hotpath.json.
//
// -metapath is shorthand for -exp metapath: the write-side twin. It
// microbenchmarks the allocation metadata path (ns per allocate/release
// operation and shadow-stores/op per sanitizer × size class × churn
// pattern, against the reference poisoner path) and writes
// BENCH_metapath.json. -metapath-min F fails the run when a GiantSan
// churn's geomean fast-vs-reference speedup lands below F (the CI sanity
// gate).
//
// -exp tiers measures the service's sanitization-tier ladder (full →
// elim → cheap → sampled): virtual-clock ns/session over a workload mix
// against planted-bug detection rate on the progen corpus, written to
// BENCH_tiers.json — the cost/coverage curve behind load-driven tier
// downgrade. -tiers-check fails the run unless cost is strictly monotone
// down the ladder and detection never increases (the CI gate).
//
// -exp shards measures the service's horizontal scale-out: a tenant
// batch routed through real consistent-hash ShardSets at increasing
// shard counts, billed on the virtual clock (makespan = the slowest
// shard's summed bill), plus the arena residency table (resident
// shadow bytes vs pages dirtied), written to BENCH_shards.json. The run
// itself fails if any session's outcome differs between shard counts —
// the sharding determinism contract. -shards-check additionally fails
// the run unless the highest shard count reaches -shards-min speedup
// and residency is exactly proportional to dirtied pages (the CI gate).
//
// -exp federation measures the multi-process scale-out one level above
// shards: the same tenant batch routed by a real federation front-end
// (RemoteBackend) across 1/2/4 live backend servers, each itself a 2-way
// ShardSet, billed on the virtual clock (makespan = the slowest
// backend×shard lane's summed bill), plus the proxy hop's measured
// wall-clock overhead and a kill-one-backend failover table, written to
// BENCH_federation.json. The run fails if any session's outcome differs
// between backend counts. -federation-check additionally fails the run
// unless 2 backends reach -federation-min2 and 4 reach -federation-min4
// speedup, and failover loses zero sessions while remapping only the
// killed backend's tenants (the CI gate).
//
// -exp canary runs the differential validation campaign (the offline
// twin of the service's always-on canary): N generator-wheel programs,
// each recorded and triple-replayed under the fast path, the reference
// path and the byte-granular oracle. Per-seed runs are pure and merged
// in seed order, so under the virtual clock the report is byte-identical
// at any -parallel level. With no -canary-plant, any discrepancy fails
// the run (exit 1) — that is the CI determinism/agreement gate. It is
// not part of -exp all; ask for it by name.
//
// -exp fuzz runs the sanitizer-guided fuzzing benchmark: several guided
// and blind greybox campaigns (internal/fuzz) with matching seeds and
// budgets, comparing executions-to-detection per bug class. The report —
// per-class blind/guided ratios and their geometric mean, all on the
// virtual clock and byte-identical at any -parallel level — is written
// to BENCH_fuzz.json. -fuzz-check fails the run unless the guided
// engine detects every class in every campaign and the geomean ratio
// reaches -fuzz-min (the CI gate).
//
// Engine flags:
//
//	-parallel N          worker count for the experiment matrix
//	                     (default 0 = GOMAXPROCS); every work item runs
//	                     in its own shared-nothing runtime and results
//	                     are merged in matrix order, so the output is
//	                     identical at any -parallel level
//	-timeout D           per-item guard (e.g. 2m): a hung kernel fails
//	                     the run instead of wedging it (default off)
//	-clock virtual|wall  timing source for table2/ablation/fig11.
//	                     "virtual" (the default) bills each run's counted
//	                     work at fixed latencies, making timing tables
//	                     byte-identical across runs, machines and
//	                     -parallel levels; "wall" measures real time —
//	                     the paper's actual methodology, best taken with
//	                     -parallel 1
//	-quiet               suppress the progress/ETA lines on stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"giantsan/internal/bench"
	"giantsan/internal/bench/federation"
	"giantsan/internal/bench/fuzzbench"
	"giantsan/internal/bench/hotpath"
	"giantsan/internal/bench/metapath"
	"giantsan/internal/bench/shards"
	"giantsan/internal/parallel"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2, ablation, fig10, fig11, redzone, quarantine, hotpath, metapath, tiers, shards, federation, canary, fuzz, all")
	scale := flag.Int("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 3, "repetitions per measurement (median)")
	hotpathFlag := flag.Bool("hotpath", false, "shorthand for -exp hotpath")
	hotpathOut := flag.String("hotpath-out", "BENCH_hotpath.json", "output path for the hotpath report")
	hotpathPasses := flag.Int("hotpath-passes", 0, "passes per hotpath shape; 0 = default")
	metapathFlag := flag.Bool("metapath", false, "shorthand for -exp metapath")
	metapathOut := flag.String("metapath-out", "BENCH_metapath.json", "output path for the metapath report")
	metapathOps := flag.Int("metapath-ops", 0, "operations per metapath batch; 0 = default")
	metapathMin := flag.Float64("metapath-min", 0, "fail unless every GiantSan churn speedup ≥ this floor; 0 disables")
	tiersOut := flag.String("tiers-out", "BENCH_tiers.json", "output path for the tiers report")
	tiersSeeds := flag.Int("tiers-seeds", 0, "planted-bug corpus seeds for the tiers suite; 0 = default")
	tiersCheck := flag.Bool("tiers-check", false, "fail unless tier cost is strictly monotone down the ladder and detection never increases")
	shardsOut := flag.String("shards-out", "BENCH_shards.json", "output path for the shards report")
	shardsTenants := flag.Int("shards-tenants", 0, "tenant population for the shards scaling batch; 0 = default")
	shardsCheck := flag.Bool("shards-check", false, "fail unless the highest shard count reaches -shards-min speedup and forked-arena residency is proportional to dirtied pages")
	shardsMin := flag.Float64("shards-min", 3.0, "minimum virtual-clock speedup -shards-check demands of the highest shard count")
	federationOut := flag.String("federation-out", "BENCH_federation.json", "output path for the federation report")
	federationTenants := flag.Int("federation-tenants", 0, "tenant population for the federation routed batch; 0 = default")
	federationCheck := flag.Bool("federation-check", false, "fail unless routed makespan reaches -federation-min2/-federation-min4 speedups and failover is lossless with ~1/N remap")
	federationMin2 := flag.Float64("federation-min2", 1.8, "minimum routed-batch speedup -federation-check demands at 2 backends")
	federationMin4 := flag.Float64("federation-min4", 3.0, "minimum routed-batch speedup -federation-check demands at 4 backends")
	fuzzOut := flag.String("fuzz-out", "BENCH_fuzz.json", "output path for the fuzzing benchmark report")
	fuzzCampaigns := flag.Int("fuzz-campaigns", 0, "campaigns per mode for the fuzzing benchmark; 0 = default")
	fuzzBudget := flag.Int("fuzz-budget", 0, "execution budget per fuzzing campaign; 0 = default")
	fuzzCheck := flag.Bool("fuzz-check", false, "fail unless guided detects every bug class and the blind/guided geomean reaches -fuzz-min")
	fuzzMin := flag.Float64("fuzz-min", 1.5, "minimum geomean executions-to-detection ratio -fuzz-check demands")
	canaryPrograms := flag.Int("canary-programs", 200, "generated programs for the canary campaign")
	canaryPlant := flag.String("canary-plant", "", "inject a named fast-path mutation into the canary campaign")
	canaryOut := flag.String("canary-out", "", "optional output path for the canary campaign JSON report")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables (table2, ablation, fig10)")
	par := flag.Int("parallel", 0, "matrix worker count; 0 = GOMAXPROCS")
	timeout := flag.Duration("timeout", 0, "per-item timeout guard; 0 disables")
	clock := flag.String("clock", "virtual", "timing source: virtual (deterministic cost model) or wall")
	quiet := flag.Bool("quiet", false, "suppress progress/ETA lines on stderr")
	flag.Parse()
	if *hotpathFlag {
		*exp = "hotpath"
	}
	if *metapathFlag {
		*exp = "metapath"
	}

	if *clock != "virtual" && *clock != "wall" {
		fmt.Fprintf(os.Stderr, "giantbench: -clock must be virtual or wall, got %q\n", *clock)
		os.Exit(2)
	}
	engine := func(name string) bench.Options {
		o := bench.Options{
			Parallel:    *par,
			Timeout:     *timeout,
			VirtualTime: *clock == "virtual",
		}
		if !*quiet {
			o.Progress = parallel.Printer(os.Stderr, "giantbench: "+name, 500*time.Millisecond)
		}
		return o
	}

	emitJSON := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}

	// report writes rep as indented JSON to the file out (skipped when out
	// is empty) and prints it: the JSON itself under -json, otherwise the
	// caption, the rendered table and where the file went.
	report := func(rep any, out, caption string, render func() string) error {
		if out != "" {
			if err := writeJSON(out, rep); err != nil {
				return err
			}
		}
		if *asJSON {
			return emitJSON(rep)
		}
		fmt.Println(caption)
		fmt.Println(render())
		if out != "" {
			fmt.Printf("(written to %s)\n", out)
		}
		return nil
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "giantbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	table2 := func(name string, ablation bool, caption string) {
		run(name, func() error {
			res, err := bench.Table2Run(*scale, *reps, ablation, engine(name))
			if err != nil {
				return err
			}
			if *asJSON {
				return emitJSON(struct {
					Rows     []bench.Table2Row  `json:"rows"`
					GeoMeans map[string]float64 `json:"geoMeans"`
				}{res.Rows, bench.GeoMeans(res.Rows)})
			}
			fmt.Println(caption)
			fmt.Println(bench.RenderTable2(res.Rows, ablation))
			return nil
		})
	}
	table2("table2", false, "Table 2 — runtime overhead vs native (SPEC-like kernels)")
	table2("ablation", true, "Table 2 (ablation) — CacheOnly / EliminationOnly columns")

	run("fig10", func() error {
		rows, err := bench.Fig10Run(*scale, engine("fig10"))
		if err != nil {
			return err
		}
		if *asJSON {
			return emitJSON(rows)
		}
		fmt.Println("Figure 10 — proportion of memory instructions per protection category")
		fmt.Println(bench.RenderFig10(rows))
		return nil
	})
	run("redzone", func() error {
		rows, err := bench.RedzoneAblation(*scale)
		if err != nil {
			return err
		}
		fmt.Println("Redzone trade-off (§4.4.1) — time and live-population footprint")
		fmt.Println(bench.RenderRedzone(rows))
		return nil
	})
	run("quarantine", func() error {
		rows, err := bench.QuarantineAblation([]uint64{96, 960, 9600, 96000, 1 << 20}, 200, engine("quarantine"))
		if err != nil {
			return err
		}
		fmt.Println("Quarantine-bypass study (§5.4) — dangling-pointer detection vs budget")
		fmt.Println(bench.RenderQuarantine(rows))
		return nil
	})
	run("hotpath", func() error {
		rep, err := hotpath.Run(*hotpathPasses)
		if err != nil {
			return err
		}
		return report(rep, *hotpathOut, "Hot-path microbenchmark — ns/check and shadow-loads/check per sanitizer × shape", func() string { return hotpath.Render(rep) })
	})
	run("metapath", func() error {
		rep, err := metapath.Run(*metapathOps)
		if err != nil {
			return err
		}
		if err := report(rep, *metapathOut, "Metadata-path microbenchmark — ns/op and shadow-stores/op per sanitizer × class × churn", func() string { return metapath.Render(rep) }); err != nil {
			return err
		}
		if *metapathMin > 0 {
			var keys []string
			for _, ch := range metapath.Churns() {
				keys = append(keys, "giantsan/"+ch.Name)
			}
			if err := metapath.AssertFloor(rep, *metapathMin, keys...); err != nil {
				return err
			}
		}
		return nil
	})
	run("tiers", func() error {
		rep, err := bench.TiersRun(*tiersSeeds, engine("tiers"))
		if err != nil {
			return err
		}
		if err := report(rep, *tiersOut, "Sanitization tiers — virtual ns/session vs planted-bug detection per ladder rung", func() string { return bench.RenderTiers(rep) }); err != nil {
			return err
		}
		if *tiersCheck {
			return bench.CheckMonotone(rep)
		}
		return nil
	})
	run("shards", func() error {
		rep, err := shards.Run([]int{1, 2, 4}, *shardsTenants)
		if err != nil {
			return err
		}
		if err := report(rep, *shardsOut, "Service scale-out — virtual-clock makespan per shard count, forked-arena shadow residency", func() string { return shards.Render(rep) }); err != nil {
			return err
		}
		if *shardsCheck {
			return shards.Check(rep, *shardsMin)
		}
		return nil
	})
	run("federation", func() error {
		rep, err := federation.Run([]int{1, 2, 4}, *federationTenants)
		if err != nil {
			return err
		}
		if err := report(rep, *federationOut, "Multi-process federation — routed makespan per backend count, proxy overhead, kill-one failover", func() string { return federation.Render(rep) }); err != nil {
			return err
		}
		if *federationCheck {
			return federation.Check(rep, *federationMin2, *federationMin4)
		}
		return nil
	})
	run("fuzz", func() error {
		rep, err := fuzzbench.Run(*fuzzCampaigns, *fuzzBudget, *par)
		if err != nil {
			return err
		}
		if err := report(rep, *fuzzOut, "Sanitizer-guided fuzzing — executions-to-detection, guided vs blind campaigns", func() string { return fuzzbench.Render(rep) }); err != nil {
			return err
		}
		if *fuzzCheck {
			return fuzzbench.Check(rep, *fuzzMin)
		}
		return nil
	})
	// The canary campaign runs only when asked for by name: unlike the
	// paper tables it is a validation suite, and its "fail on any
	// discrepancy" exit contract should not ambush -exp all.
	if *exp == "canary" {
		rep, err := bench.CanaryRun(*canaryPrograms, *canaryPlant, "", engine("canary"))
		if err == nil && *canaryOut != "" {
			err = writeJSON(*canaryOut, rep)
		}
		if err == nil {
			err = report(rep, "", "Differential validation canary — fast vs reference vs oracle over generated programs",
				func() string { return strings.TrimSuffix(bench.RenderCanary(rep), "\n") })
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "giantbench: canary: %v\n", err)
			os.Exit(1)
		}
		// A discrepancy with no plant is a real fast-path drift: fail the
		// run. With a plant, discrepancies are the expected outcome.
		if *canaryPlant == "" && (rep.Discrepancies > 0 || rep.Failures > 0) {
			os.Exit(1)
		}
	}

	run("fig11", func() error {
		pts, err := bench.Fig11Run([]uint64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}, 50**reps, engine("fig11"))
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFig11(pts))
		return nil
	})
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
