/**
 * @file
 * Metric catalog and report output.
 *
 * Every metric the benchmark can emit is declared once in the catalog
 * with its unit. An untraced run emits every end-to-end metric and a
 * traced run every per-layer metric, for every workload: a per-layer
 * metric of a layer the workload never exercises reads 0. Quantities
 * that only make sense on some workloads (the ladder's max rate, the
 * wire bytes, the int8/fp32 agreement, the training loss), and the
 * latency tail, whose run-to-run spread on a shared 4-vCPU host is wider
 * than any bound a comparison could hold it to, are printed as
 * informational lines with their units and written to the report file,
 * but are not part of the result object.
 */

#ifndef SERVEBENCH_REPORT_HH
#define SERVEBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

struct MetricDef
{
    const char *name;
    const char *unit;
    bool perLayer;
};

/** Every metric in the result object, in print order. */
const std::vector<MetricDef> &metricCatalog();

/** Unit of catalog metric @p name; nullptr when it is not declared. */
const char *catalogUnit(const std::string &name);

class Report
{
  public:
    Report(std::string workload, bool trace);

    /** Set catalog metric @p name; @p note is printed beside it. */
    void set(const std::string &name, double value,
             const std::string &note = "");

    /** An informational quantity outside the catalog. */
    void info(const std::string &name, double value, const std::string &unit,
              const std::string &note = "");

    /** Any line of free text (phase tables, check summaries). */
    void line(const std::string &text);

    void setFingerprint(std::string json) { _fingerprint = std::move(json); }

    /**
     * Print the human-readable report, write it with the result object
     * to @p report_path (when non-empty), and print the result object
     * as the last line of stdout. Returns the process exit code: 0 when
     * @p correct, 1 otherwise, 3 when a catalog metric was never set.
     */
    int finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::string &report_path);

  private:
    struct Value
    {
        double value = 0.0;
        std::string unit;
        std::string note;
    };

    std::string _workload;
    bool _trace;
    std::string _fingerprint;
    std::map<std::string, Value> _metrics;
    std::vector<std::pair<std::string, Value>> _info;
    std::vector<std::string> _lines;
};

/** Format @p v with full precision for JSON. */
std::string jsonNumber(double v);

} // namespace servebench

#endif // SERVEBENCH_REPORT_HH
