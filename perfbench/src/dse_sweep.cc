/**
 * @file
 * dse_sweep: runDseSweep over the default 48-point grid (depths 1-3 x
 * banks x regs) on the Table I(a)+(b) suite at a fixed workload scale,
 * cycle tier, a fresh in-memory ProgramCache per sweep, and one shard
 * per thread (the dse_sweep tool's defaults). This drives the compiler
 * the other way from large_pc_compile: hundreds of small compiles in
 * parallel, each followed by a simulation and the energy model.
 */

#include <algorithm>
#include <string>

#include "bench.hh"
#include "compiler/compiler.hh"
#include "compiler/verify.hh"
#include "dag/eval.hh"
#include "model/dse.hh"
#include "model/energy.hh"
#include "sim/machine.hh"

namespace perfbench {

namespace {

constexpr double kScale = 0.3; // the dse_sweep tool's default scale
/** Grid points are cut into kShards shards of three points each, which
 *  the sweep's threads take by work stealing: the sweep's wall time is
 *  then the threads' shared work, not its slowest quarter of the grid
 *  (depth-3 points compile and run slower than depth-1 ones). */
constexpr uint32_t kShards = 16;
/** Re-evaluations of the min-EDP design after each sweep. One takes
 *  a fraction of a second, so a run's few sweeps would give its
 *  sim_minstr_per_s and solve_p50_ms only a few short glimpses of the
 *  machine; three per sweep sample more of the run. */
constexpr int kReevaluations = 3;

/** The Table I(a)+(b) suite with every twin re-seeded from `seed`. */
std::vector<dpu::WorkloadSpec>
seededSuite(uint64_t seed)
{
    std::vector<dpu::WorkloadSpec> suite = dpu::smallSuite();
    SplitMix rng(seed * 0xbf58476d1ce4e5b9ull + 11);
    for (dpu::WorkloadSpec &spec : suite)
        spec.seed = rng.next() >> 16;
    return suite;
}

dpu::DseSweepOptions
pinnedSweep(const std::vector<dpu::WorkloadSpec> &suite, uint32_t threads,
            dpu::ProgramCache *cache)
{
    dpu::DseSweepOptions o;
    o.space.depths = {1, 2, 3};
    o.space.banks = {8, 16, 32, 64};
    o.space.regs = {16, 32, 64, 128};
    o.space.scales = {};
    o.space.cores = {};
    o.space.workloadScale = kScale;
    o.space.seed = kCompileSeed;
    o.space.suite = suite;
    o.space.fleetRanks = 1;
    o.space.transfer = {};
    o.threads = threads;
    o.shards = kShards;
    o.journalPath.clear();
    o.resume = false;
    o.cache = cache;
    o.fidelity = dpu::EvalFidelity::Cycle;
    o.refine = false;
    o.refineErrorBound = -1.0;
    o.table = nullptr;
    o.verify = false;
    return o;
}

bool
samePoint(const dpu::DsePoint &a, const dpu::DsePoint &b)
{
    return a.feasible == b.feasible && a.latencyPerOpNs == b.latencyPerOpNs &&
           a.energyPerOpPj == b.energyPerOpPj && a.edpPjNs == b.edpPjNs &&
           a.areaMm2 == b.areaMm2 && a.throughputGops == b.throughputGops &&
           a.powerWatts == b.powerWatts;
}

/** a Pareto-dominates b over (latency, energy, area), by hand. */
bool
dominates(const dpu::DsePoint &a, const dpu::DsePoint &b)
{
    bool no_worse = a.latencyPerOpNs <= b.latencyPerOpNs &&
                    a.energyPerOpPj <= b.energyPerOpPj &&
                    a.areaMm2 <= b.areaMm2;
    bool better = a.latencyPerOpNs < b.latencyPerOpNs ||
                  a.energyPerOpPj < b.energyPerOpPj || a.areaMm2 < b.areaMm2;
    return no_worse && better;
}

/** The frontier and minimum-EDP point, recomputed independently. */
void
checkFrontier(Outcome &o, const std::vector<dpu::DsePoint> &pts)
{
    std::vector<size_t> frontier = dpu::paretoFrontier(pts);
    std::vector<bool> on(pts.size(), false);
    for (size_t i : frontier)
        on[i] = true;
    for (size_t i = 0; i < pts.size(); ++i) {
        if (!pts[i].feasible) {
            o.check(!on[i], "an infeasible point is on the frontier");
            continue;
        }
        bool dominated = false;
        for (size_t j = 0; j < pts.size() && !dominated; ++j)
            dominated = j != i && pts[j].feasible && dominates(pts[j], pts[i]);
        if (on[i])
            o.check(!dominated, "frontier point " + std::to_string(i) +
                                    " is dominated");
        else
            o.check(dominated, "feasible point " + std::to_string(i) +
                                   " is off the frontier but undominated");
    }
    size_t best = dpu::kDseNpos;
    double best_edp = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
        double edp = pts[i].latencyPerOpNs * pts[i].energyPerOpPj;
        if (pts[i].feasible && (best == dpu::kDseNpos || edp < best_edp)) {
            best = i;
            best_edp = edp;
        }
    }
    size_t got = dpu::minEdpIndex(pts);
    o.check(best != dpu::kDseNpos && got < pts.size() &&
                pts[got].latencyPerOpNs * pts[got].energyPerOpPj == best_edp,
            "minEdpIndex is not the argmin of latency x energy");
}

/** One suite workload compiled and run at the min-EDP design. */
struct PointRun
{
    dpu::CompiledProgram prog;
    dpu::SimStats stats;
    dpu::EnergyBreakdown energy;
    double seconds = 0; // compile + run
    double runSeconds = 0;
};

} // namespace

Outcome
runDseSweep(const RunConfig &run, Tracer &tr)
{
    Outcome o;

    // Set-up: the seeded suite, built once (the sweep rebuilds it at
    // every point; these copies feed the checks), and its inputs.
    const std::vector<dpu::WorkloadSpec> suite = seededSuite(run.seed);
    std::vector<dpu::Dag> dags(suite.size());
    const double suite_build_s = tr.time("workloads.buildWorkloadDag", [&] {
        for (size_t w = 0; w < suite.size(); ++w)
            dags[w] = dpu::buildWorkloadDag(suite[w], kScale);
    });
    SplitMix rng(run.seed * 0x94d049bb133111ebull + 5);
    std::vector<std::vector<double>> inputs(suite.size());
    for (size_t w = 0; w < suite.size(); ++w) {
        inputs[w].resize(dags[w].numInputs());
        for (double &x : inputs[w])
            x = 0.5 + rng.uniform();
    }
    const double setup_s = secondsBetween(run.processStart, Clock::now());

    // Measured sweeps, each followed by a re-evaluation of its
    // min-EDP design, workload by workload, from outside the DSE.
    std::vector<double> points_per_s, evals_per_s, compile_mean_s,
        dse_compile_s, shard_max_s, shard_min_s, solve_s, run_s,
        minstr_per_s;
    std::vector<dpu::DsePoint> first;
    std::vector<PointRun> at_best(suite.size());
    dpu::ProgramCache::Stats cache_stats;
    size_t best = dpu::kDseNpos;
    Window window(run.seconds);
    do {
        dpu::ProgramCache cache(dpu::ProgramCacheConfig{32, 128, ""});
        dpu::DseSweepResult res;
        const double wall = tr.time("model.runDseSweep", [&] {
            res = dpu::runDseSweep(
                pinnedSweep(suite, run.threads, &cache));
        });
        cache_stats = cache.stats();
        double compiles = 0, compile_sum = 0, smax = 0, smin = 1e300;
        for (const dpu::DseShardReport &s : res.shardReports) {
            compiles += double(s.compiles);
            compile_sum += s.compileSeconds;
            smax = std::max(smax, s.seconds);
            smin = std::min(smin, s.seconds);
        }
        points_per_s.push_back(double(res.points.size()) / wall);
        evals_per_s.push_back(compiles / wall);
        compile_mean_s.push_back(compile_sum / compiles);
        dse_compile_s.push_back(compile_sum);
        shard_max_s.push_back(smax);
        shard_min_s.push_back(smin);
        o.attempted += res.points.size();
        if (first.empty()) {
            first = res.points;
            checkFrontier(o, first);
            best = dpu::minEdpIndex(first);
            if (best == dpu::kDseNpos)
                break;
        } else {
            bool same = res.points.size() == first.size();
            for (size_t i = 0; same && i < first.size(); ++i)
                same = samePoint(res.points[i], first[i]);
            o.check(same, "a repeated sweep produced different points");
        }

        const dpu::ArchConfig cfg = first[best].cfg;
        for (int rep = 0; rep < kReevaluations; ++rep) {
            double sim_instructions = 0, sim_seconds = 0, solve_seconds = 0;
            for (size_t w = 0; w < suite.size(); ++w) {
                PointRun &pr = at_best[w];
                double compile_s = tr.time("compiler.compile", [&] {
                    pr.prog = dpu::compile(dags[w], cfg,
                                           pinnedCompileOptions(1, 0));
                });
                pr.runSeconds = tr.time("sim.Machine::run", [&] {
                    pr.stats = dpu::Machine(pr.prog).run(inputs[w]).stats;
                });
                pr.energy = dpu::energyOf(cfg, pr.stats,
                                          pr.prog.stats.numOperations);
                pr.seconds = compile_s + pr.runSeconds;
                solve_seconds += pr.seconds;
                run_s.push_back(pr.runSeconds);
                sim_instructions += double(pr.prog.stats.instructions);
                sim_seconds += pr.runSeconds;
            }
            minstr_per_s.push_back(sim_instructions / sim_seconds * 1e-6);
            solve_s.push_back(solve_seconds / double(suite.size()));
            o.attempted += suite.size();
        }
    } while (window.another());
    const double peak_rss_mb = peakRssMb();
    o.check(best != dpu::kDseNpos, "no feasible design point");
    if (best == dpu::kDseNpos)
        return o;

    // The DSE's averages for the min-EDP point, recomputed.
    double lat = 0, epo = 0, cycles = 0, energy_nj = 0, program_kib = 0;
    std::vector<const dpu::CompileStats *> cstats;
    std::vector<const dpu::SimStats *> sstats;
    std::vector<const dpu::CompiledProgram *> progs;
    std::vector<const std::vector<double> *> prog_inputs;
    for (size_t w = 0; w < suite.size(); ++w) {
        const PointRun &pr = at_best[w];
        lat += pr.energy.latencyPerOpNs();
        epo += pr.energy.energyPerOpPj();
        cycles += double(pr.stats.cycles);
        energy_nj += pr.energy.totalPj * 1e-3;
        program_kib += double(pr.prog.stats.programBits) / 8192.0;
        o.check(pr.stats.cycles == pr.prog.stats.cycles,
                suite[w].name + ": simulated cycles differ from compiled");
        cstats.push_back(&pr.prog.stats);
        sstats.push_back(&pr.stats);
        progs.push_back(&pr.prog);
        prog_inputs.push_back(&inputs[w]);
    }
    lat /= double(suite.size());
    epo /= double(suite.size());
    o.check(closeRel(lat, first[best].latencyPerOpNs, 1e-12) &&
                closeRel(epo, first[best].energyPerOpPj, 1e-12),
            "re-evaluating the min-EDP point disagrees with the sweep");

    // Checks outside the measured window.
    double verify_s = 0;
    for (const dpu::CompiledProgram *p : progs) {
        dpu::VerifyReport report;
        verify_s += tr.time("compiler.verifyProgram",
                            [&] { report = dpu::verifyProgram(*p); });
        o.check(report.errorCount() == 0,
                "verifyProgram: " + report.summary());
    }
    dpu::ProgramCache serial_cache(dpu::ProgramCacheConfig{32, 128, ""});
    dpu::DseSweepResult serial;
    tr.time("model.runDseSweep.serial", [&] {
        serial =
            dpu::runDseSweep(pinnedSweep(suite, 1, &serial_cache));
    });
    bool same = serial.points.size() == first.size();
    for (size_t i = 0; same && i < first.size(); ++i)
        same = samePoint(serial.points[i], first[i]);
    o.check(same && dpu::minEdpIndex(serial.points) == best,
            "the 1-thread sweep differs from the " +
                std::to_string(run.threads) + "-thread sweep");
    double serial_compiles = 0, serial_compile_sum = 0;
    for (const dpu::DseShardReport &s : serial.shardReports) {
        serial_compiles += double(s.compiles);
        serial_compile_sum += s.compileSeconds;
    }

    size_t feasible = 0;
    for (const dpu::DsePoint &p : first)
        feasible += p.feasible;
    o.notes.push_back(std::to_string(first.size()) + " points, " +
                      std::to_string(feasible) + " feasible; min-EDP " +
                      first[best].cfg.label() + "; suite build " +
                      std::to_string(suite_build_s) + " s x " +
                      std::to_string(first.size()) + " points vs sweep " +
                      std::to_string(1.0 / median(points_per_s) *
                                     double(first.size())) +
                      " s wall");

    o.e2e("setup_s", setup_s);
    o.e2e("peak_rss_mb", peak_rss_mb);
    o.e2e("compile_s", median(compile_mean_s));
    o.e2e("sim_minstr_per_s", median(minstr_per_s));
    o.e2e("dpu_cycles", cycles);
    o.e2e("dpu_energy_nj", energy_nj);
    o.e2e("program_kib", program_kib);
    o.e2e("solves_per_s", median(evals_per_s));
    o.e2e("solve_p50_ms", median(solve_s) * 1e3);
    o.e2e("dse_points_per_s", median(points_per_s));
    o.e2e("dse_min_edp", first[best].edpPjNs);

    o.layer("compiler.compile_s", median(compile_mean_s));
    o.layer("compiler.compile_serial_s", serial_compile_sum / serial_compiles);
    reportCompileStats(o, cstats);
    double instructions = 0;
    for (const dpu::CompileStats *s : cstats)
        instructions += double(s->instructions);
    o.layer("compiler.unpartitioned_instructions", instructions);
    o.layer("compiler.verify_s", verify_s);
    o.layer("compiler.cache_hits", double(cache_stats.hits));
    o.layer("compiler.cache_misses", double(cache_stats.misses));
    o.layer("compiler.frag_hits", double(cache_stats.fragHits));
    o.layer("compiler.frag_misses", double(cache_stats.fragMisses));
    o.layer("model.dse.compile_s", median(dse_compile_s));
    o.layer("model.dse.shard_s_max", median(shard_max_s));
    o.layer("model.dse.shard_s_min", median(shard_min_s));
    o.layer("workloads.generate_s", suite_build_s);
    o.layer("workloads.suite_build_s", suite_build_s);
    o.layer("sim.run_s", median(run_s));
    o.layer("sim.instr_per_s", median(minstr_per_s) * 1e6);
    reportSimStats(o, sstats);

    if (tr.enabled()) {
        double eval_s = 0;
        for (size_t w = 0; w < suite.size(); ++w)
            eval_s += tr.time("dag.evaluate",
                              [&] { dpu::evaluate(dags[w], inputs[w]); });
        o.layer("dag.evaluate_s", eval_s);
        measureEvaluatorRates(o, tr, progs, prog_inputs);
    }
    return o;
}

} // namespace perfbench
