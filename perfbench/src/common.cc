#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hh"
#include "model/evaluator.hh"

namespace perfbench {

dpu::CompileOptions
pinnedCompileOptions(uint32_t threads, uint32_t partition_nodes)
{
    dpu::CompileOptions o;
    o.bankPolicy = dpu::BankPolicy::ConflictAware;
    o.boundaryAwareBanks = true;
    o.reorderWindow = 300;
    o.partitionNodes = partition_nodes;
    o.seed = kCompileSeed;
    o.validate = false;
    o.verify = false;
    o.threads = threads;
    o.fragmentCache = nullptr;
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::logic_error("median of an empty sample");
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

bool
sameProgram(const dpu::CompiledProgram &a, const dpu::CompiledProgram &b)
{
    // Field by field rather than via serializeProgram(): the image
    // also carries the wall-clock compileSeconds.
    const dpu::CompileStats &x = a.stats, &y = b.stats;
    bool same_stats =
        x.kindCount == y.kindCount && x.instructions == y.instructions &&
        x.cycles == y.cycles && x.bankConflicts == y.bankConflicts &&
        x.nops == y.nops && x.spillStores == y.spillStores &&
        x.reloads == y.reloads && x.numOperations == y.numOperations &&
        x.peOpsExecuted == y.peOpsExecuted && x.blocks == y.blocks &&
        x.programBits == y.programBits &&
        x.programBitsExplicitWrites == y.programBitsExplicitWrites &&
        x.csrBits == y.csrBits && x.dataBits == y.dataBits;
    bool same_outputs = a.outputs.size() == b.outputs.size();
    for (size_t i = 0; same_outputs && i < a.outputs.size(); ++i)
        same_outputs = a.outputs[i].node == b.outputs[i].node &&
                       a.outputs[i].row == b.outputs[i].row &&
                       a.outputs[i].col == b.outputs[i].col;
    return same_stats && same_outputs &&
           a.numRows == b.numRows && a.inputLocation == b.inputLocation &&
           a.instructions == b.instructions;
}

bool
closeRel(double a, double b, double rel)
{
    if (a == b)
        return true;
    return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

void
reportCompileStats(Outcome &o,
                   const std::vector<const dpu::CompileStats *> &stats)
{
    double instructions = 0, spills = 0, reloads = 0, nops = 0,
           conflicts = 0, blocks = 0;
    for (const dpu::CompileStats *s : stats) {
        instructions += double(s->instructions);
        spills += double(s->spillStores);
        reloads += double(s->reloads);
        nops += double(s->nops);
        conflicts += double(s->bankConflicts);
        blocks += double(s->blocks);
    }
    o.layer("compiler.instructions", instructions);
    o.layer("compiler.spill_stores", spills);
    o.layer("compiler.reloads", reloads);
    o.layer("compiler.nops", nops);
    o.layer("compiler.bank_conflicts", conflicts);
    o.layer("compiler.blocks", blocks);
}

void
reportSimStats(Outcome &o, const std::vector<const dpu::SimStats *> &stats)
{
    double reads = 0, writes = 0, xbar = 0, mem_reads = 0, mem_writes = 0,
           peak = 0;
    for (const dpu::SimStats *s : stats) {
        reads += double(s->bankReads);
        writes += double(s->bankWrites);
        xbar += double(s->crossbarTransfers);
        mem_reads += double(s->memReads);
        mem_writes += double(s->memWrites);
        peak = std::max(peak, double(s->peakLiveRegisters));
    }
    o.layer("sim.bank_reads", reads);
    o.layer("sim.bank_writes", writes);
    o.layer("sim.crossbar_transfers", xbar);
    o.layer("sim.mem_reads", mem_reads);
    o.layer("sim.mem_writes", mem_writes);
    o.layer("sim.peak_live_registers", peak);
}

void
measureEvaluatorRates(Outcome &o, Tracer &tracer,
                      const std::vector<const dpu::CompiledProgram *> &progs,
                      const std::vector<const std::vector<double> *> &inputs)
{
    using dpu::EvalFidelity;
    // Cycle: one pass (a pass over a large program takes seconds).
    dpu::Evaluator cycle(EvalFidelity::Cycle);
    double cycle_s = 0;
    for (size_t i = 0; i < progs.size(); ++i)
        cycle_s += tracer.time("model.Evaluator::run.cycle", [&] {
            cycle.run(*progs[i], *inputs[i]);
        });
    o.layer("model.eval_per_s.cycle", double(progs.size()) / cycle_s);

    // Static tiers take microseconds: one span over whole passes
    // until 50 ms have gone by.
    auto rate = [&](EvalFidelity fid, const char *span,
                    const char *metric) {
        dpu::Evaluator ev(fid);
        uint64_t evals = 0;
        double s = tracer.time(span, [&] {
            Clock::time_point t0 = Clock::now();
            do {
                for (const dpu::CompiledProgram *p : progs)
                    ev.estimate(*p);
                evals += progs.size();
            } while (secondsBetween(t0, Clock::now()) < 0.05);
        });
        o.layer(metric, double(evals) / s);
    };
    rate(EvalFidelity::Table, "model.Evaluator::estimate.table",
         "model.eval_per_s.table");
    rate(EvalFidelity::Analytic, "model.Evaluator::estimate.analytic",
         "model.eval_per_s.analytic");
}

} // namespace perfbench
