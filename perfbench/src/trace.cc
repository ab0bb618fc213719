#include <cstdio>
#include <map>
#include <stdexcept>

#include "bench.hh"

namespace perfbench {

void
Tracer::request(const char *name, uint64_t id, Clock::time_point start,
                Clock::time_point end)
{
    if (on)
        spans.push_back({name, start, end, open.empty() ? -1 : open.back(),
                         id});
}

namespace {

double
micros(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - origin).count();
}

FILE *
openOrThrow(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    return f;
}

void
closeOrThrow(FILE *f, const std::string &path)
{
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

} // namespace

void
Tracer::writeChromeTrace(const std::string &path) const
{
    FILE *f = openOrThrow(path);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f, "{\"name\": \"process_name\", \"ph\": \"M\", "
                    "\"pid\": 1, \"args\": {\"name\": \"perfbench\"}}");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::string layer = s.name.substr(0, s.name.find('.'));
        double ts = micros(origin, s.start);
        if (s.asyncId == 0) {
            std::fprintf(f,
                         ",\n{\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                         "{\"span\": %zu, \"parent\": %d}}",
                         s.name.c_str(), layer.c_str(), ts,
                         micros(s.start, s.end), i, s.parent);
        } else {
            for (const char *ph : {"b", "e"})
                std::fprintf(f,
                             ",\n{\"name\": \"%s\", \"cat\": \"%s\", "
                             "\"ph\": \"%s\", \"pid\": 1, \"id\": %llu, "
                             "\"ts\": %.3f, \"args\": {\"parent\": %d}}",
                             s.name.c_str(), layer.c_str(), ph,
                             static_cast<unsigned long long>(s.asyncId),
                             ph[0] == 'b' ? ts : micros(origin, s.end),
                             s.parent);
        }
    }
    std::fprintf(f, "\n]}\n");
    closeOrThrow(f, path);
}

void
Tracer::writeLayerTable(const std::string &path,
                        const std::string &header) const
{
    // Self time: a span's duration minus its direct synchronous
    // children, which nest inside it and never overlap each other.
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = secondsBetween(spans[i].start, spans[i].end);
    for (const Span &s : spans)
        if (s.asyncId == 0 && s.parent >= 0)
            self[s.parent] -= secondsBetween(s.start, s.end);

    struct Row
    {
        std::vector<double> durations;
        double self = 0;
        bool async = false;
    };
    std::map<std::string, Row> rows;
    std::map<std::string, double> layerSelf;
    for (size_t i = 0; i < spans.size(); ++i) {
        Row &r = rows[spans[i].name];
        r.durations.push_back(secondsBetween(spans[i].start, spans[i].end));
        r.async = spans[i].asyncId != 0;
        if (!r.async) {
            r.self += self[i];
            layerSelf[spans[i].name.substr(0, spans[i].name.find('.'))] +=
                self[i];
        }
    }

    FILE *f = openOrThrow(path);
    std::fprintf(f, "%s", header.c_str());
    std::fprintf(f, "\n%-36s %8s %12s %12s %12s\n", "span", "calls",
                 "total_s", "self_s", "median_s");
    for (const auto &[name, r] : rows) {
        double total = 0;
        for (double d : r.durations)
            total += d;
        if (r.async)
            std::fprintf(f, "%-36s %8zu %12.6f %12s %12.6f\n", name.c_str(),
                         r.durations.size(), total, "(overlap)",
                         median(r.durations));
        else
            std::fprintf(f, "%-36s %8zu %12.6f %12.6f %12.6f\n",
                         name.c_str(), r.durations.size(), total, r.self,
                         median(r.durations));
    }
    std::fprintf(f, "\n%-36s %12s\n", "layer", "self_s");
    for (const auto &[layer, s] : layerSelf)
        std::fprintf(f, "%-36s %12.6f\n", layer.c_str(), s);
    closeOrThrow(f, path);
}

} // namespace perfbench
