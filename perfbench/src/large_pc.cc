/**
 * @file
 * large_pc_compile: a probabilistic-circuit twin shaped like Table I(c)
 * `mildew` at scale 0.2 (660k operations, longest path 176), compiled
 * for minEdpConfig() with 20000-node partitions and simulated once per
 * round. At this size the partitioned, pipelined compile path does
 * nearly all the work; nothing here touches serving.
 */

#include <algorithm>
#include <cmath>
#include <string>

#include "bench.hh"
#include "compiler/compiler.hh"
#include "compiler/verify.hh"
#include "dag/eval.hh"
#include "model/energy.hh"
#include "sim/machine.hh"
#include "workloads/pc_generator.hh"

namespace perfbench {

namespace {

constexpr size_t kOperations = 660000; // mildew (3.3M) x 0.2
constexpr size_t kLongestPath = 176;
constexpr uint32_t kPartitionNodes = 20000;
/** Simulations per round. A run has only a few rounds, and host speed
 *  wanders over seconds; two runs per compile double the moments the
 *  simulator metrics sample. */
constexpr int kRunsPerRound = 2;

/** The benchmark's own reference: walk the nodes in id order (operands
 *  precede their users), Add and Mul in doubles. */
std::vector<double>
referenceWalk(const dpu::Dag &dag, const std::vector<double> &inputs)
{
    std::vector<double> value(dag.numNodes());
    size_t next_input = 0;
    for (dpu::NodeId id = 0; id < dag.numNodes(); ++id) {
        const dpu::Node &n = dag.node(id);
        if (n.isInput()) {
            value[id] = inputs[next_input++];
            continue;
        }
        double acc = value[n.operands[0]];
        for (size_t k = 1; k < n.operands.size(); ++k)
            acc = n.op == dpu::OpType::Add ? acc + value[n.operands[k]]
                                           : acc * value[n.operands[k]];
        value[id] = acc;
    }
    return value;
}

/** Outputs that disagree with the reference beyond a relative 1e-9
 *  (values that underflow to subnormals are compared absolutely). */
size_t
countMismatches(const dpu::CompiledProgram &prog,
                const dpu::SimResult &res, const std::vector<double> &want)
{
    size_t bad = res.outputs.size() == prog.outputs.size() ? 0 : 1;
    for (size_t k = 0; k < std::min(res.outputs.size(), prog.outputs.size());
         ++k) {
        double w = want[prog.outputs[k].node], g = res.outputs[k];
        if (!closeRel(g, w, 1e-9) && std::fabs(g - w) > 1e-300)
            ++bad;
    }
    return bad;
}

} // namespace

Outcome
runLargePcCompile(const RunConfig &run, Tracer &tr)
{
    Outcome o;
    const dpu::ArchConfig cfg = dpu::minEdpConfig();

    // Set-up: the twin, one input vector, and the reference values.
    dpu::PcParams pc;
    pc.targetOperations = kOperations;
    pc.depth = kLongestPath;
    pc.numInputs = 0;
    pc.crossLayerFraction = 0.35;
    pc.seed = run.seed;
    dpu::Dag dag;
    double generate_s =
        tr.time("workloads.generatePc", [&] { dag = dpu::generatePc(pc); });
    // Leaves in [0.3, 0.4): deep product chains still underflow, but
    // most outputs stay normal numbers.
    SplitMix rng(run.seed * 0x2545f4914f6cdd1dull + 1);
    std::vector<double> inputs(dag.numInputs());
    for (double &x : inputs)
        x = 0.3 + 0.1 * rng.uniform();
    std::vector<double> want;
    tr.time("bench.reference_walk", [&] { want = referenceWalk(dag, inputs); });
    const double setup_s = secondsBetween(run.processStart, Clock::now());

    // Measured rounds: compile at the timed thread count, then run.
    const dpu::CompileOptions opt =
        pinnedCompileOptions(run.threads, kPartitionNodes);
    std::vector<double> compile_s, sim_s;
    dpu::CompiledProgram first, prog;
    dpu::SimResult res;
    Window window(run.seconds);
    size_t rounds = 0;
    do {
        tr.time("bench.round", [&] {
            compile_s.push_back(tr.time("compiler.compile", [&] {
                prog = dpu::compile(dag, cfg, opt);
            }));
            for (int rep = 0; rep < kRunsPerRound; ++rep) {
                sim_s.push_back(tr.time("sim.Machine::run", [&] {
                    res = dpu::Machine(prog).run(inputs);
                }));
                size_t bad = countMismatches(prog, res, want);
                o.check(bad == 0, std::to_string(bad) +
                                      " simulated outputs differ from the "
                                      "reference walk");
                o.check(res.stats.cycles == prog.stats.cycles,
                        "simulated cycles " +
                            std::to_string(res.stats.cycles) +
                            " != compiled cycles " +
                            std::to_string(prog.stats.cycles));
            }
        });
        o.attempted += 1 + kRunsPerRound; // one compile, its simulations
        if (rounds == 0)
            first = prog;
        else
            o.check(sameProgram(first, prog),
                    "a repeated compile produced a different program");
        ++rounds;
    } while (window.another());
    const double peak_rss_mb = peakRssMb();

    // Checks outside the measured window.
    dpu::CompiledProgram serial;
    double serial_s = tr.time("compiler.compile.serial", [&] {
        serial = dpu::compile(
            dag, cfg, pinnedCompileOptions(1, kPartitionNodes));
    });
    o.check(sameProgram(first, serial),
            "the 1-thread compile differs from the " +
                std::to_string(run.threads) + "-thread compile");
    dpu::VerifyReport report;
    double verify_s = tr.time("compiler.verifyProgram",
                              [&] { report = dpu::verifyProgram(prog); });
    size_t v011 = 0;
    for (const dpu::Diagnostic &d : report.diagnostics)
        v011 += d.severity == dpu::VerifySeverity::Warning &&
                d.code == dpu::VerifyCode::IoLocOutOfBounds;
    o.check(report.errorCount() == 0,
            "verifyProgram: " + report.summary());
    o.notes.push_back("verifyProgram: " + report.summary() + ", " +
                      std::to_string(v011) + " V011 data-memory warning(s)");

    const dpu::EnergyBreakdown energy =
        dpu::energyOf(cfg, res.stats, prog.stats.numOperations);
    const double sim_med = median(sim_s);
    const double instructions = double(prog.stats.instructions);

    o.e2e("setup_s", setup_s);
    o.e2e("peak_rss_mb", peak_rss_mb);
    o.e2e("compile_s", median(compile_s));
    o.e2e("sim_minstr_per_s", instructions / sim_med * 1e-6);
    o.e2e("dpu_cycles", double(res.stats.cycles));
    o.e2e("dpu_energy_nj", energy.totalPj * 1e-3);
    o.e2e("program_kib", double(prog.stats.programBits) / 8192.0);
    o.e2e("solves_per_s", 1.0 / sim_med);
    o.e2e("solve_p50_ms", sim_med * 1e3);
    o.e2e("dse_points_per_s", 1.0 / (median(compile_s) + sim_med));
    o.e2e("dse_min_edp", energy.edpPjNs());

    o.layer("compiler.compile_s", median(compile_s));
    o.layer("compiler.compile_serial_s", serial_s);
    reportCompileStats(o, {&prog.stats});
    o.layer("compiler.verify_s", verify_s);
    o.layer("workloads.generate_s", generate_s);
    o.layer("sim.run_s", sim_med);
    o.layer("sim.instr_per_s", instructions / sim_med);
    reportSimStats(o, {&res.stats});

    if (tr.enabled()) {
        // Per-layer probes that cost seconds; the untraced run skips
        // them.
        dpu::CompiledProgram whole;
        tr.time("compiler.compile.unpartitioned", [&] {
            whole =
                dpu::compile(dag, cfg, pinnedCompileOptions(1, 0));
        });
        o.layer("compiler.unpartitioned_instructions",
                double(whole.stats.instructions));
        o.notes.push_back(
            "partitioned " + std::to_string(prog.stats.instructions) +
            " instructions / " + std::to_string(prog.stats.spillStores) +
            " spill stores; unpartitioned " +
            std::to_string(whole.stats.instructions) + " / " +
            std::to_string(whole.stats.spillStores));
        o.layer("dag.evaluate_s", tr.time("dag.evaluate", [&] {
                    dpu::evaluate(dag, inputs);
                }));
        measureEvaluatorRates(o, tr, {&prog}, {&inputs});
    }
    return o;
}

} // namespace perfbench
