/**
 * @file
 * Shared pieces of the toolchain benchmark: the span tracer, the run
 * configuration, the outcome a workload reports, and small statistics
 * helpers. Every workload measures from outside the library: spans
 * wrap the benchmark's own calls into a module's public functions.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "compiler/program.hh"
#include "sim/machine.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One recorded span. `parent` indexes the enclosing span (-1 = top
 *  level). Request spans (asyncId != 0) overlap one another, so they
 *  are kept off the nesting stack and out of self-time accounting. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int32_t parent = -1;
    uint64_t asyncId = 0;
};

/**
 * Times calls into the library. time() always measures (workloads
 * derive their metrics from the returned seconds); only when enabled
 * does it also keep a span, in memory, for the files written at the
 * end of the run. Spans are recorded from the benchmark's main thread
 * only, so the tracer needs no lock.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled), origin(Clock::now()) {}

    bool enabled() const { return on; }

    /** Run fn() as the span `name`; returns its wall seconds. */
    template <typename Fn>
    double
    time(const char *name, Fn &&fn)
    {
        int32_t idx = -1;
        if (on) {
            idx = static_cast<int32_t>(spans.size());
            spans.push_back({name, {}, {}, open.empty() ? -1 : open.back(),
                             0});
            open.push_back(idx);
        }
        Clock::time_point t0 = Clock::now();
        fn();
        Clock::time_point t1 = Clock::now();
        if (on) {
            spans[idx].start = t0;
            spans[idx].end = t1;
            open.pop_back();
        }
        return secondsBetween(t0, t1);
    }

    /** Record one request's lifetime (submit to result ready). */
    void request(const char *name, uint64_t id, Clock::time_point start,
                 Clock::time_point end);

    /** Chrome trace-event JSON (opens in Perfetto / about:tracing). */
    void writeChromeTrace(const std::string &path) const;

    /** Per-span-name table: calls, total, self (total minus the time
     *  covered by child spans) and median, plus self time per layer
     *  (the span name's prefix before the first '.'). */
    void writeLayerTable(const std::string &path,
                         const std::string &header) const;

    size_t spanCount() const { return spans.size(); }

  private:
    bool on;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int32_t> open;
};

/**
 * The measured window of a run: rounds of work repeat for about
 * `seconds`. Another round starts while, if it lasts as long as the
 * last one, it would end less than half a round past the window, so a
 * run measures `seconds` give or take half a round rather than always
 * running one round over.
 */
class Window
{
  public:
    explicit Window(double seconds)
        : length(seconds), start(Clock::now()), roundStart(start)
    {
    }

    /** Call at the end of each round: whether to run another. */
    bool
    another()
    {
        const Clock::time_point now = Clock::now();
        const double round = secondsBetween(roundStart, now);
        roundStart = now;
        return secondsBetween(start, now) + round / 2 < length;
    }

  private:
    double length;
    Clock::time_point start;
    Clock::time_point roundStart;
};

/** What the benchmark was asked to run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Host threads of the timed compiles and sweeps: 4, capped at
     *  the machine's hardware concurrency. */
    uint32_t threads = 1;
    /** Where the workload may write files (the .mtx, the traces). */
    std::string outDir;
    Clock::time_point processStart;
};

/** Everything one run reports. Metric names and units are listed
 *  once, in main.cc; a workload sets values by name. */
struct Outcome
{
    std::map<std::string, double> endToEnd;
    /** Per-layer values; a layer the workload never calls reads 0. */
    std::map<std::string, double> perLayer;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Failed output checks; any entry makes the run incorrect. */
    std::vector<std::string> checkFailures;
    /** Lines for the layer table's header (traced runs). */
    std::vector<std::string> notes;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            checkFailures.push_back(what);
    }
    void e2e(const char *name, double value) { endToEnd[name] = value; }
    void layer(const char *name, double value) { perLayer[name] = value; }
};

Outcome runLargePcCompile(const RunConfig &run, Tracer &tracer);
Outcome runSptrsvMtxServe(const RunConfig &run, Tracer &tracer);
Outcome runDseSweep(const RunConfig &run, Tracer &tracer);

/** The compiler's tie-break seed (the library default). Inputs vary
 *  with --seed; the compiler's own randomness does not. */
constexpr uint64_t kCompileSeed = 1;

/**
 * Every CompileOptions field, set explicitly: the library defaults,
 * with validate and verify off (verify defaults on in Debug and
 * sanitizer builds and would add verifier time to every timed
 * compile). The DSE compiles its points with these same values.
 */
dpu::CompileOptions pinnedCompileOptions(uint32_t threads,
                                         uint32_t partition_nodes);

/** Median of a non-empty sample. */
double median(std::vector<double> v);

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** Identical programs: instructions, memory layout and compile
 *  statistics (wall-clock fields excluded). */
bool sameProgram(const dpu::CompiledProgram &a,
                 const dpu::CompiledProgram &b);

/** Per-layer compiler counters, summed over `stats`. */
void reportCompileStats(Outcome &o,
                        const std::vector<const dpu::CompileStats *> &stats);

/** Per-layer simulator counters, summed over `stats` (peak live
 *  registers: the maximum). */
void reportSimStats(Outcome &o,
                    const std::vector<const dpu::SimStats *> &stats);

/** Evaluations per second of each Evaluator tier over `progs` (each
 *  with its input vector for the cycle tier). */
void measureEvaluatorRates(
    Outcome &o, Tracer &tracer,
    const std::vector<const dpu::CompiledProgram *> &progs,
    const std::vector<const std::vector<double> *> &inputs);

/** Relative agreement: equal (including both infinite) or within
 *  `rel` of the larger magnitude. */
bool closeRel(double a, double b, double rel);

/** SplitMix64: the benchmark draws its own inputs, independently of
 *  the library's generators. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n); n > 0. Modulo bias is irrelevant here. */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
