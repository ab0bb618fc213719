/**
 * @file
 * sptrsv_mtx_serve: the ".mtx to solved result" path. The benchmark
 * generates a sparse system, writes it as a Matrix Market file, and the
 * library loads, lowers, builds the SpTRSV DAG and compiles it once
 * (set-up). One generator thread then serves rounds of right-hand sides
 * through AsyncBatchServer in a closed loop with a fixed number in
 * flight. Per-solve simulation and batching dominate; the compiler
 * runs only in set-up.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include "baselines/baselines.hh"
#include "bench.hh"
#include "compiler/compiler.hh"
#include "compiler/verify.hh"
#include "dag/eval.hh"
#include "model/energy.hh"
#include "sim/async.hh"
#include "sim/batch.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"

namespace perfbench {

namespace {

// The system: kRows rows with a row-dependency depth of kLevels (the
// depth profile of the SuiteSparse twins in Table I(b)) and up to
// kOffDiagonal off-diagonal entries per row. The sparsity pattern is
// the static DAG the paper serves many inputs with, so it comes from
// the fixed kPatternSeed; --seed draws the values and right-hand sides.
// A DPU program returns only DAG sinks, and most x_i feed later rows,
// so kRows tap rows x'_i = 0 + 1 * x_i follow; they make every
// component of x a returned value. Dimension 2 * kRows = 2000.
constexpr uint32_t kRows = 1000;
constexpr uint32_t kLevels = 50;
constexpr uint32_t kOffDiagonal = 8;
constexpr uint64_t kPatternSeed = 20221001;
constexpr size_t kWarmupSolves = 1000;
constexpr size_t kRoundSolves = 250;
constexpr size_t kInFlight = 16;
constexpr size_t kRhsPool = 64;
constexpr size_t kBatchLanes = 8;
constexpr std::chrono::microseconds kPollInterval{50};

struct Entry
{
    uint32_t row;
    uint32_t col;
    double value;
};

/** The generated system, kept by the benchmark for its own checks. */
struct System
{
    uint32_t dim = 0;
    std::vector<std::vector<Entry>> lowerRows; ///< Row r: cols <= r.
    std::vector<Entry> upper;                  ///< Dropped by lowering.
};

System
generateSystem(uint64_t seed)
{
    SplitMix pattern(kPatternSeed);
    SplitMix rng(seed * 0x9e3779b97f4a7c15ull + 7);
    System s;
    s.dim = 2 * kRows;
    s.lowerRows.resize(s.dim);
    static_assert(kRows % kLevels == 0, "levels of equal size");
    auto level_begin = [](uint32_t level) { return level * (kRows / kLevels); };
    for (uint32_t r = 0; r < kRows; ++r) {
        uint32_t level = r / (kRows / kLevels);
        std::vector<uint32_t> cols;
        if (level > 0) {
            // Each row reads the row in its slot one level down (the
            // dependency chain); the other entries reach at least two
            // levels down where there are such rows.
            cols.push_back(r - kRows / kLevels);
            uint32_t reach = level_begin(level >= 2 ? level - 1 : level);
            for (uint32_t k = 1; k < kOffDiagonal; ++k)
                cols.push_back(uint32_t(pattern.below(reach)));
            std::sort(cols.begin(), cols.end());
            cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
        }
        double off_sum = 0;
        for (uint32_t c : cols) {
            double v = (0.1 + 0.9 * rng.uniform()) *
                       (rng.below(2) ? 1.0 : -1.0);
            off_sum += std::fabs(v);
            s.lowerRows[r].push_back({r, c, v});
        }
        // Diagonally dominant: x stays within a small multiple of b.
        double diag = (off_sum + 1.0 + rng.uniform()) *
                      (rng.below(2) ? 1.0 : -1.0);
        s.lowerRows[r].push_back({r, r, diag});
        uint32_t up = r + 1 + uint32_t(pattern.below(s.dim - r - 1));
        s.upper.push_back({r, up, rng.uniform() - 0.5});
    }
    for (uint32_t i = 0; i < kRows; ++i) {
        uint32_t t = kRows + i;
        s.lowerRows[t].push_back({t, i, -1.0});
        s.lowerRows[t].push_back({t, t, 1.0});
    }
    return s;
}

void
writeMatrixMarketFile(const System &s, const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    size_t nnz = s.upper.size();
    for (const auto &row : s.lowerRows)
        nnz += row.size();
    std::fprintf(f, "%%%%MatrixMarket matrix coordinate real general\n"
                    "%% perfbench sptrsv_mtx_serve system\n%u %u %zu\n",
                 s.dim, s.dim, nnz);
    size_t next_upper = 0;
    for (uint32_t r = 0; r < s.dim; ++r) {
        for (const Entry &e : s.lowerRows[r])
            std::fprintf(f, "%u %u %.17g\n", e.row + 1, e.col + 1, e.value);
        if (next_upper < s.upper.size() && s.upper[next_upper].row == r) {
            const Entry &e = s.upper[next_upper++];
            std::fprintf(f, "%u %u %.17g\n", e.row + 1, e.col + 1, e.value);
        }
    }
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

/** The benchmark's own forward substitution. */
std::vector<double>
forwardSubstitute(const System &s, const std::vector<double> &b)
{
    std::vector<double> x(s.dim);
    for (uint32_t r = 0; r < s.dim; ++r) {
        double acc = b[r], diag = 0;
        for (const Entry &e : s.lowerRows[r]) {
            if (e.col == r)
                diag = e.value;
            else
                acc -= e.value * x[e.col];
        }
        x[r] = acc / diag;
    }
    return x;
}

double
maxAbs(const std::vector<double> &v)
{
    double m = 0;
    for (double x : v)
        m = std::max(m, std::fabs(x));
    return m;
}

dpu::AsyncServerConfig
pinnedServer()
{
    dpu::AsyncServerConfig c;
    c.cores = 4;
    c.ranks = 1;
    c.transfer = {};
    c.placement = dpu::Placement::Replicate;
    c.maxBatch = 8;
    c.batchWindow = std::chrono::microseconds(200);
    c.workers = 2;
    c.hostThreadsPerBatch = 1;
    c.queueDepth = 0;
    c.admissionFidelity = dpu::EvalFidelity::Analytic;
    c.predictiveAdmission = false;
    return c;
}

/** A batch takes up to min(size, cores) model cores, so a full batch
 *  of 8 would hold all 4 and leave the second worker waiting; capping
 *  a batch at 2 cores keeps both workers busy whatever the batch
 *  sizes. */
dpu::QosSpec
pinnedQos()
{
    dpu::QosSpec q;
    q.priority = dpu::Priority::Batch;
    q.minCores = 0;
    q.maxCores = 2;
    q.deadline = std::chrono::microseconds(0);
    q.placement = std::nullopt;
    return q;
}

} // namespace

Outcome
runSptrsvMtxServe(const RunConfig &run, Tracer &tr)
{
    Outcome o;
    const dpu::ArchConfig cfg = dpu::minEdpConfig();

    // ---- Set-up: generate, write, load, lower, compile, start. ----
    const System sys = generateSystem(run.seed);
    const std::string mtx_path =
        run.outDir + "/sptrsv-" + std::to_string(run.seed) + ".mtx";
    tr.time("bench.write_mtx", [&] { writeMatrixMarketFile(sys, mtx_path); });

    SplitMix rng(run.seed * 0xd1b54a32d192ed03ull + 3);
    std::vector<std::vector<double>> rhs(kRhsPool,
                                         std::vector<double>(sys.dim, 0.0));
    for (auto &b : rhs)
        for (uint32_t r = 0; r < kRows; ++r)
            b[r] = 2 * rng.uniform() - 1; // tap rows keep b = 0

    dpu::SparseMatrixCsr read, lower;
    dpu::SpTrsvDag lowered;
    std::vector<std::vector<double>> inputs;
    dpu::CompiledProgram prog;
    const double read_s = tr.time("workloads.readMatrixMarketFile", [&] {
        read = dpu::readMatrixMarketFile(mtx_path);
    });
    const double lower_s = tr.time("workloads.lowerTriangularFrom", [&] {
        lower = dpu::lowerTriangularFrom(read);
    });
    const double dag_s = tr.time("workloads.buildSpTrsvDag", [&] {
        lowered = dpu::buildSpTrsvDag(lower);
    });
    const double inputs_s = tr.time("workloads.sptrsvBatchInputs", [&] {
        inputs = dpu::sptrsvBatchInputs(lowered, lower, rhs);
    });
    // ~17k operations: one partition.
    const dpu::CompileOptions opt = pinnedCompileOptions(run.threads, 0);
    const double compile_s = tr.time("compiler.compile", [&] {
        prog = dpu::compile(lowered.dag, cfg, opt);
    });
    dpu::AsyncBatchServer server(pinnedServer());
    dpu::AsyncBatchServer::ProgramHandle handle = 0;
    tr.time("sim.AsyncBatchServer::addProgram",
            [&] { handle = server.addProgram(prog, pinnedQos()); });
    const double setup_s = secondsBetween(run.processStart, Clock::now());

    // Reference solutions, and where each x_i comes back: the output
    // slot of its tap row's node.
    std::vector<std::vector<double>> want(kRhsPool);
    for (size_t p = 0; p < kRhsPool; ++p)
        want[p] = forwardSubstitute(sys, rhs[p]);
    std::vector<size_t> slot(kRows, SIZE_MAX);
    for (size_t k = 0; k < prog.outputs.size(); ++k)
        for (uint32_t i = 0; i < kRows; ++i)
            if (prog.outputs[k].node == lowered.solution[kRows + i])
                slot[i] = k;
    o.check(std::count(slot.begin(), slot.end(), SIZE_MAX) == 0,
            "some x_i is not among the program's outputs");

    // Served x against the reference, and the residual of L x = b.
    auto check_solution = [&](const dpu::SimResult &res, size_t p) {
        std::vector<double> x(kRows);
        for (uint32_t i = 0; i < kRows; ++i)
            x[i] = slot[i] < res.outputs.size() ? res.outputs[slot[i]]
                                                : NAN;
        size_t bad = 0;
        double resid = 0;
        for (uint32_t r = 0; r < kRows; ++r) {
            if (!closeRel(x[r], want[p][r], 1e-9))
                ++bad;
            double acc = -rhs[p][r];
            for (const Entry &e : sys.lowerRows[r])
                acc += e.value * x[e.col];
            resid = std::max(resid, std::fabs(acc));
        }
        return bad == 0 && resid <= 1e-10 * maxAbs(rhs[p]);
    };

    // ---- Measured rounds: closed loop, kInFlight outstanding. ----
    struct InFlight
    {
        uint64_t id;
        size_t pool;
        Clock::time_point submitted;
        std::future<dpu::SimResult> result;
    };
    auto ready = [](const InFlight &f) {
        return f.result.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    };
    std::vector<double> latency_s, serial_s, run_s;
    size_t wrong = 0, odd_stats = 0;
    uint64_t next_id = 1;
    dpu::SimStats served_stats;
    bool have_stats = false;
    // One closed-loop round of `count` solves, each checked; latencies
    // are kept when `latencies` is given.
    auto serve_round = [&](size_t count, std::vector<double> *latencies) {
        std::deque<InFlight> flight;
        size_t submitted = 0, done = 0;
        while (done < count) {
            while (flight.size() < kInFlight && submitted < count) {
                size_t p = submitted++ % kRhsPool;
                Clock::time_point t = Clock::now();
                flight.push_back(
                    {next_id++, p, t, server.submit(handle, inputs[p])});
            }
            // Poll: batches can finish out of submission order, and
            // waiting on the oldest would stamp a younger batch late.
            while (std::none_of(flight.begin(), flight.end(), ready))
                std::this_thread::sleep_for(kPollInterval);
            const Clock::time_point now = Clock::now();
            for (auto it = flight.begin(); it != flight.end();) {
                if (!ready(*it)) {
                    ++it;
                    continue;
                }
                dpu::SimResult res = it->result.get();
                if (latencies)
                    latencies->push_back(secondsBetween(it->submitted, now));
                tr.request("serve.request", it->id, it->submitted, now);
                wrong += !check_solution(res, it->pool);
                if (!have_stats) {
                    served_stats = res.stats;
                    have_stats = true;
                }
                odd_stats += res.stats.cycles != served_stats.cycles ||
                             res.stats.bankReads != served_stats.bankReads;
                ++done;
                it = flight.erase(it);
            }
        }
        o.attempted += count;
    };

    // A warm-up round (the first round after start-up runs slower:
    // the workers' first batches fault in their machine state), then
    // measured rounds for the run's length.
    tr.time("bench.warmup_round",
            [&] { serve_round(kWarmupSolves, nullptr); });
    double served_s = 0;
    size_t rounds = 0;
    Window window(run.seconds);
    do {
        served_s += tr.time("bench.serve_round",
                            [&] { serve_round(kRoundSolves, &latency_s); });
        ++rounds;

        // Between rounds, outside the served time: a warm 1-thread
        // recompile (one partition, so threads do not change the work)
        // and a standalone run. Taken after every short round, these
        // samples see the machine over the whole run, as the serving
        // does.
        dpu::CompiledProgram serial;
        serial_s.push_back(tr.time("compiler.compile.serial", [&] {
            serial =
                dpu::compile(lowered.dag, cfg, pinnedCompileOptions(1, 0));
        }));
        o.check(sameProgram(prog, serial),
                "the 1-thread compile differs from the timed compile");
        const size_t p = rounds % kRhsPool;
        dpu::SimResult alone;
        run_s.push_back(tr.time("sim.Machine::run", [&] {
            alone = dpu::Machine(prog).run(inputs[p]);
        }));
        o.check(check_solution(alone, p) &&
                    alone.stats.cycles == served_stats.cycles,
                "a standalone Machine::run disagrees with the server");
    } while (window.another());
    const double peak_rss_mb = peakRssMb();
    const dpu::AsyncBatchServer::Stats stats = server.stats();
    o.check(wrong == 0, std::to_string(wrong) +
                            " served solutions differ from forward "
                            "substitution or leave a large residual");
    o.check(odd_stats == 0, std::to_string(odd_stats) +
                                " solves report different event counts");
    o.check(served_stats.cycles == prog.stats.cycles,
            "served cycles differ from the compiled cycle count");

    // ---- Checks and layer probes outside the measured window. ----
    dpu::VerifyReport report;
    const double verify_s = tr.time("compiler.verifyProgram",
                                    [&] { report = dpu::verifyProgram(prog); });
    o.check(report.errorCount() == 0, "verifyProgram: " + report.summary());

    const dpu::EnergyBreakdown energy =
        dpu::energyOf(cfg, served_stats, prog.stats.numOperations);
    const double instructions = double(prog.stats.instructions);
    const double solves = double(latency_s.size());
    const double compile_med = median(serial_s);
    const double run_med = median(run_s);

    o.e2e("setup_s", setup_s);
    o.e2e("peak_rss_mb", peak_rss_mb);
    o.e2e("compile_s", compile_med);
    o.e2e("sim_minstr_per_s", solves * instructions / served_s * 1e-6);
    o.e2e("dpu_cycles", double(served_stats.cycles));
    o.e2e("dpu_energy_nj", energy.totalPj * 1e-3);
    o.e2e("program_kib", double(prog.stats.programBits) / 8192.0);
    o.e2e("solves_per_s", solves / served_s);
    o.e2e("solve_p50_ms", median(latency_s) * 1e3);
    o.e2e("dse_points_per_s", 1.0 / (compile_med + run_med));
    o.e2e("dse_min_edp", energy.edpPjNs());

    o.layer("compiler.compile_s", compile_s);
    o.layer("compiler.compile_serial_s", compile_med);
    reportCompileStats(o, {&prog.stats});
    o.layer("compiler.unpartitioned_instructions", instructions);
    o.layer("compiler.verify_s", verify_s);
    o.layer("workloads.generate_s", dag_s);
    o.layer("workloads.mtx_read_s", read_s);
    o.layer("workloads.lower_s", lower_s);
    o.layer("workloads.rhs_inputs_s", inputs_s);
    o.layer("sim.run_s", run_med);
    o.layer("sim.instr_per_s", instructions / run_med);
    reportSimStats(o, {&served_stats});
    // Server counters per 1000 solves, the warm-up's included.
    const double thousands =
        double(kWarmupSolves + rounds * kRoundSolves) / 1000.0;
    o.layer("serve.batches", double(stats.batches) / thousands);
    o.layer("serve.mean_batch", stats.meanBatch());
    o.layer("serve.size_dispatches",
            double(stats.sizeDispatches) / thousands);
    o.layer("serve.window_dispatches",
            double(stats.windowDispatches) / thousands);
    std::vector<double> service_us;
    double service_sum_us = 0;
    for (const auto &s : stats.serviceSamples) {
        service_us.push_back(s.actualUs);
        service_sum_us += s.actualUs;
    }
    if (!service_us.empty()) {
        o.layer("serve.service_us_p50", median(service_us));
        double mean_latency_ms = 0;
        for (double l : latency_s)
            mean_latency_ms += l * 1e3 / solves;
        o.layer("serve.wait_ms_mean",
                mean_latency_ms -
                    service_sum_us / double(service_us.size()) * 1e-3);
    }
    o.notes.push_back(std::to_string(lower.dim()) + " rows, " +
                      std::to_string(lower.nnz()) + " nonzeros after "
                      "lowering, dependency depth " +
                      std::to_string(lower.dependencyDepth()) + ", " +
                      std::to_string(lowered.dag.numOperations()) +
                      " DAG operations, " +
                      std::to_string(latency_s.size()) + " solves served");

    if (tr.enabled()) {
        std::vector<std::vector<double>> lanes(inputs.begin(),
                                               inputs.begin() + kBatchLanes);
        std::vector<double> batch_s;
        for (int rep = 0; rep < 5; ++rep)
            batch_s.push_back(tr.time("sim.BatchMachine::run", [&] {
                dpu::BatchMachine(prog, 4, prog.stats.numOperations, 1)
                    .run(lanes);
            }));
        o.layer("sim.batch_lanes_per_s", double(kBatchLanes) / median(batch_s));
        std::vector<double> eval_s;
        for (int rep = 0; rep < 5; ++rep)
            eval_s.push_back(tr.time("dag.evaluate", [&] {
                dpu::evaluate(lowered.dag, inputs[0]);
            }));
        o.layer("dag.evaluate_s", median(eval_s));
        std::vector<std::vector<double>> cpu_rhs(rhs.begin(),
                                                 rhs.begin() + kBatchLanes);
        dpu::CpuSparseResult cpu;
        tr.time("baselines.runCpuSparseSolve", [&] {
            cpu = dpu::runCpuSparseSolve(lower, cpu_rhs, {1, 3});
        });
        o.layer("baselines.cpu_solve_s", cpu.seconds);
        size_t cpu_bad = 0;
        for (size_t p = 0; p < kBatchLanes; ++p)
            for (uint32_t r = 0; r < kRows; ++r)
                cpu_bad += !closeRel(cpu.solutions[p][r], want[p][r], 1e-9);
        o.check(cpu_bad == 0, "the CPU baseline's solutions are wrong");
        measureEvaluatorRates(o, tr, {&prog}, {&inputs[0]});
    }
    return o;
}

} // namespace perfbench
