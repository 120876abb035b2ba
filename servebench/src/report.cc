#include "report.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace servebench {

const std::vector<MetricDef> &
metricCatalog()
{
    static const std::vector<MetricDef> catalog = {
        // End-to-end (untraced runs).
        {"setup_s", "s", false},
        {"capacity_fps", "1/s", false},
        {"lat_p50_ms", "ms", false},
        {"peak_rss_mb", "MiB", false},
        // Per layer (traced runs).
        {"serve.queue_wait_ms.p50", "ms", true},
        {"serve.queue_wait_ms.tail", "ms", true},
        {"serve.batch_size.mean", "frames", true},
        {"serve.overhead_ms_per_batch", "ms", true},
        {"serve.submit_ms.tail", "ms", true},
        {"serve.shed", "count", true},
        {"serve.expired", "count", true},
        {"serve.errored", "count", true},
        {"serve.max_queue_depth", "count", true},
        {"encoder.ms_per_batch", "ms", true},
        {"encoder.gmac_s", "GMAC/s", true},
        {"encoder.roofline_pct", "%", true},
        {"decoder.ms_per_batch", "ms", true},
        {"decoder.gmac_s", "GMAC/s", true},
        {"decoder.roofline_pct", "%", true},
        {"backbone.ms_per_batch", "ms", true},
        {"backbone.gmac_s", "GMAC/s", true},
        {"backbone.roofline_pct", "%", true},
        {"wire.encode_ms_per_frame", "ms", true},
        {"wire.bytes_per_frame", "B", true},
        {"wire.decode_ms_per_frame", "ms", true},
        {"alloc.per_frame", "count", true},
        {"train.batch_wait_ms", "ms", true},
        {"train.forward_ms", "ms", true},
        {"train.backward_ms", "ms", true},
        {"train.optimizer_ms", "ms", true},
        {"train.gmac_s", "GMAC/s", true},
        {"gen.late_ms.tail", "ms", true},
        {"trace.overhead_pct", "%", true},
        {"trace.unaccounted_pct", "%", true},
        {"trace.spans_dropped", "count", true},
    };
    return catalog;
}

const char *
catalogUnit(const std::string &name)
{
    for (const MetricDef &m : metricCatalog())
        if (name == m.name)
            return m.unit;
    return nullptr;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

Report::Report(std::string workload, bool trace)
    : _workload(std::move(workload)), _trace(trace)
{
}

void
Report::set(const std::string &name, double value, const std::string &note)
{
    const char *unit = catalogUnit(name);
    if (!unit) {
        std::cerr << "servebench: metric '" << name
                  << "' is not in the catalog\n";
        return;
    }
    _metrics[name] = {value, unit, note};
}

void
Report::info(const std::string &name, double value, const std::string &unit,
             const std::string &note)
{
    _info.push_back({name, {value, unit, note}});
}

void
Report::line(const std::string &text)
{
    _lines.push_back(text);
}

int
Report::finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::string &report_path)
{
    int code = correct ? 0 : 1;
    std::ostringstream human;
    human << "== servebench " << _workload
          << (_trace ? " (traced pass)" : " (untraced)") << " ==\n";
    human << "fingerprint " << _fingerprint << "\n";
    for (const std::string &l : _lines)
        human << l << "\n";

    std::ostringstream metrics;
    metrics << "{";
    bool first = true;
    for (const MetricDef &def : metricCatalog()) {
        if (def.perLayer != _trace)
            continue;
        auto it = _metrics.find(def.name);
        if (it == _metrics.end()) {
            if (!def.perLayer) {
                std::cerr << "servebench: end-to-end metric " << def.name
                          << " was never measured\n";
                code = 3;
                continue;
            }
            // A layer this workload never exercises did no work.
            it = _metrics.emplace(def.name,
                                  Value{0.0, def.unit, "not exercised"})
                     .first;
        }
        const Value &v = it->second;
        char buf[256];
        std::snprintf(buf, sizeof buf, "metric %-30s %14.6g %-7s %s",
                      def.name, v.value, v.unit.c_str(), v.note.c_str());
        human << buf << "\n";
        metrics << (first ? "" : ", ") << "\"" << def.name
                << "\": {\"value\": " << jsonNumber(v.value)
                << ", \"unit\": \"" << v.unit << "\"}";
        first = false;
    }
    metrics << "}";
    for (const auto &[name, v] : _info) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "info   %-30s %14.6g %-7s %s",
                      name.c_str(), v.value, v.unit.c_str(), v.note.c_str());
        human << buf << "\n";
    }
    const double fail_ratio =
        attempted ? static_cast<double>(failed) / attempted : 0.0;
    human << "result correct=" << (correct ? "true" : "false")
          << " attempted=" << attempted << " failed=" << failed
          << " fail_ratio=" << jsonNumber(fail_ratio) << "\n";

    std::ostringstream result;
    result << "{\"correct\": " << (correct && code == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": " << metrics.str() << "}";

    std::cout << human.str() << std::flush;
    if (!report_path.empty()) {
        std::ofstream out(report_path);
        out << human.str() << result.str() << "\n";
        if (!out)
            std::cerr << "servebench: could not write " << report_path
                      << "\n";
    }
    std::cout << result.str() << std::endl;
    return code;
}

} // namespace servebench
