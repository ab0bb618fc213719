/**
 * @file
 * perfbench: one benchmark for the DPU-v2 toolchain.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --out-dir <dir>
 *
 * Workloads: large_pc_compile, sptrsv_mtx_serve, dse_sweep (see
 * README.md). Prints the build type and compiler, then, as the last
 * line, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 they are the per-layer ones, and the run also writes a
 * Chrome trace-event JSON file and a per-layer self-time table to the
 * output directory. Exit status: 0 correct run, 1 failed check or
 * error, 2 bad usage or a non-Release build.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hh"

using namespace perfbench;

namespace {

const Clock::time_point kProcessStart = Clock::now();

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** A timed build must be optimized and must not run the verifier
 *  inside compile() (Debug and sanitizer builds default it on). */
bool
isReleaseBuild()
{
#if defined(NDEBUG) && !defined(DPU_VERIFY_DEFAULT)
    return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<large_pc_compile|sptrsv_mtx_serve|dse_sweep> --seed <n> "
                 "--seconds <s> --trace <0|1> --out-dir <dir>\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    if (!*s || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end)
        return false;
    out = v;
    return true;
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (BENCHMARK.json "end_to_end"). Every
 *  workload measures every one. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"compile_s", "s"},
    {"sim_minstr_per_s", "Minstr/s"},
    {"dpu_cycles", "cycles"},
    {"dpu_energy_nj", "nJ"},
    {"program_kib", "KiB"},
    {"solves_per_s", "1/s"},
    {"solve_p50_ms", "ms"},
    {"dse_points_per_s", "1/s"},
    {"dse_min_edp", "pJ.ns"},
};

/** The per-layer metrics (BENCHMARK.json "per_layer"), named
 *  <module>.<what>. A layer a workload never calls reads 0. */
const MetricDef kPerLayer[] = {
    {"compiler.compile_s", "s"},
    {"compiler.compile_serial_s", "s"},
    {"compiler.instructions", "count"},
    {"compiler.spill_stores", "count"},
    {"compiler.reloads", "count"},
    {"compiler.nops", "count"},
    {"compiler.bank_conflicts", "count"},
    {"compiler.blocks", "count"},
    {"compiler.unpartitioned_instructions", "count"},
    {"compiler.verify_s", "s"},
    {"compiler.cache_hits", "count"},
    {"compiler.cache_misses", "count"},
    {"compiler.frag_hits", "count"},
    {"compiler.frag_misses", "count"},
    {"model.dse.compile_s", "s"},
    {"model.dse.shard_s_max", "s"},
    {"model.dse.shard_s_min", "s"},
    {"workloads.generate_s", "s"},
    {"workloads.suite_build_s", "s"},
    {"workloads.mtx_read_s", "s"},
    {"workloads.lower_s", "s"},
    {"workloads.rhs_inputs_s", "s"},
    {"sim.run_s", "s"},
    {"sim.instr_per_s", "instr/s"},
    {"sim.batch_lanes_per_s", "lanes/s"},
    {"sim.bank_reads", "count"},
    {"sim.bank_writes", "count"},
    {"sim.crossbar_transfers", "count"},
    {"sim.mem_reads", "count"},
    {"sim.mem_writes", "count"},
    {"sim.peak_live_registers", "count"},
    {"serve.batches", "count"},
    {"serve.mean_batch", "count"},
    {"serve.size_dispatches", "count"},
    {"serve.window_dispatches", "count"},
    {"serve.service_us_p50", "us"},
    {"serve.wait_ms_mean", "ms"},
    {"model.eval_per_s.cycle", "1/s"},
    {"model.eval_per_s.table", "1/s"},
    {"model.eval_per_s.analytic", "1/s"},
    {"dag.evaluate_s", "s"},
    {"baselines.cpu_solve_s", "s"},
};

/** Every value finite, every end-to-end metric measured, and no name
 *  outside the tables (a misspelt name would otherwise read 0). */
void
checkMetricNames(Outcome &o)
{
    auto known = [](const auto &table, const std::string &name) {
        for (const MetricDef &d : table)
            if (name == d.name)
                return true;
        return false;
    };
    for (const MetricDef &d : kEndToEnd)
        o.check(o.endToEnd.count(d.name) == 1,
                std::string("end-to-end metric ") + d.name + " not measured");
    for (const auto &[name, value] : o.endToEnd)
        o.check(known(kEndToEnd, name) && std::isfinite(value),
                "end-to-end metric " + name + " unknown or not finite");
    for (const auto &[name, value] : o.perLayer)
        o.check(known(kPerLayer, name) && std::isfinite(value),
                "per-layer metric " + name + " unknown or not finite");
}

/** The result line. An incorrect run reports no metrics. */
void
printJson(const Outcome &o, bool correct, bool trace)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    if (correct) {
        const auto &values = trace ? o.perLayer : o.endToEnd;
        bool first = true;
        auto print = [&](const MetricDef &d) {
            auto it = values.find(d.name);
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        first ? "" : ", ", d.name,
                        it == values.end() ? 0.0 : it->second, d.unit);
            first = false;
        };
        if (trace)
            for (const MetricDef &d : kPerLayer)
                print(d);
        else
            for (const MetricDef &d : kEndToEnd)
                print(d);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig run;
    run.processStart = kProcessStart;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            run.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, run.seed))
                return usage("--seed needs a non-negative integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n < 1 || n > 3600)
                return usage("--seconds needs an integer in [1, 3600]");
            run.seconds = double(n);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, n) || n > 1)
                return usage("--trace needs 0 or 1");
            run.trace = n == 1;
            have_trace = true;
        } else if (flag == "--out-dir") {
            run.outDir = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace ||
        run.outDir.empty())
        return usage("every flag is required");

    std::printf("# build: %s, %s\n", PERFBENCH_BUILD_TYPE, compilerName());
    if (!isReleaseBuild()) {
        std::fprintf(stderr, "perfbench: refusing to measure a non-Release "
                             "build\n");
        return 2;
    }

    unsigned hw = std::thread::hardware_concurrency();
    run.threads = hw == 0 ? 1 : std::min(4u, hw);
    std::printf("# workload %s, seed %llu, %g s, trace %d, %u thread(s)\n",
                run.workload.c_str(),
                static_cast<unsigned long long>(run.seed), run.seconds,
                run.trace ? 1 : 0, run.threads);
    std::fflush(stdout);

    Tracer tracer(run.trace);
    Outcome outcome;
    try {
        std::filesystem::create_directories(run.outDir);
        if (run.workload == "large_pc_compile")
            outcome = runLargePcCompile(run, tracer);
        else if (run.workload == "sptrsv_mtx_serve")
            outcome = runSptrsvMtxServe(run, tracer);
        else if (run.workload == "dse_sweep")
            outcome = runDseSweep(run, tracer);
        else
            return usage(("unknown workload " + run.workload).c_str());

        checkMetricNames(outcome);

        if (run.trace) {
            std::string stem = run.outDir + "/trace-" + run.workload + "-" +
                               std::to_string(run.seed);
            std::string header = "# perfbench traced run: " +
                                 run.workload + ", seed " +
                                 std::to_string(run.seed) + ", " +
                                 std::to_string(tracer.spanCount()) +
                                 " spans\n";
            for (const std::string &note : outcome.notes)
                header += "# " + note + "\n";
            // The traced run's own end-to-end figures: set against an
            // untraced run of the same seed they give the overhead.
            header += "# end-to-end (traced):";
            for (const auto &[name, value] : outcome.endToEnd)
                header += " " + name + "=" + std::to_string(value);
            header += "\n";
            tracer.writeChromeTrace(stem + ".json");
            tracer.writeLayerTable(stem + ".layers.txt", header);
            std::fprintf(stderr, "perfbench: wrote %s.json and %s.layers.txt\n",
                         stem.c_str(), stem.c_str());
        }
    } catch (const std::exception &e) {
        outcome.check(false, std::string("error: ") + e.what());
    }

    for (const std::string &f : outcome.checkFailures)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    bool correct = outcome.checkFailures.empty();
    printJson(outcome, correct, run.trace);
    return correct ? 0 : 1;
}
