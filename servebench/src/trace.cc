#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace servebench {

namespace {

/** Small per-thread tag for the trace's tid column. */
std::uint16_t
threadTag()
{
    static std::atomic<std::uint16_t> next{1};
    thread_local const std::uint16_t tag = next.fetch_add(1);
    return tag;
}

} // namespace

std::int64_t
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Backend: return "serve.backend";
    case SpanKind::Encoder: return "core.encoder";
    case SpanKind::Decoder: return "core.decoder";
    case SpanKind::Backbone: return "nn.backbone";
    case SpanKind::WireEncode: return "bitstream.wire_encode";
    case SpanKind::Submit: return "serve.submit";
    case SpanKind::TrainStep: return "train.step";
    case SpanKind::BatchWait: return "data.batch_wait";
    case SpanKind::Forward: return "train.forward";
    case SpanKind::Backward: return "train.backward";
    case SpanKind::Optimizer: return "nn.optimizer";
    }
    return "unknown";
}

Recorder::Recorder(std::size_t capacity) : _slots(capacity) {}

void
Recorder::record(SpanKind kind, std::int64_t start, std::int64_t end,
                 std::uint32_t id, std::uint32_t items)
{
    const std::size_t slot = _next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= _slots.size()) {
        _dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    SpanRecord &r = _slots[slot];
    r.start = start;
    r.end = end;
    r.id = id;
    r.items = items;
    r.kind = kind;
    r.thread = threadTag();
}

std::vector<SpanRecord>
Recorder::spans() const
{
    const std::size_t n = std::min(_next.load(), _slots.size());
    return {_slots.begin(), _slots.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::vector<LayerRow>
layerTable(const std::vector<SpanRecord> &spans)
{
    std::vector<const SpanRecord *> order;
    order.reserve(spans.size());
    for (const SpanRecord &s : spans)
        order.push_back(&s);
    // Per thread, by start; an enclosing span sorts before its children.
    std::sort(order.begin(), order.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  if (a->thread != b->thread)
                      return a->thread < b->thread;
                  if (a->start != b->start)
                      return a->start < b->start;
                  return a->end > b->end;
              });

    std::vector<std::int64_t> childNanos(order.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const SpanRecord &s = *order[i];
        while (!stack.empty()
               && (order[stack.back()]->thread != s.thread
                   || order[stack.back()]->end <= s.start))
            stack.pop_back();
        if (!stack.empty())
            childNanos[stack.back()] += s.end - s.start;
        stack.push_back(i);
    }

    std::map<SpanKind, LayerRow> rows;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const SpanRecord &s = *order[i];
        LayerRow &row = rows[s.kind];
        row.kind = s.kind;
        ++row.count;
        row.items += s.items;
        row.totalMs += static_cast<double>(s.end - s.start) / 1e6;
        row.selfMs +=
            static_cast<double>(s.end - s.start - childNanos[i]) / 1e6;
    }
    std::vector<LayerRow> out;
    for (const auto &[kind, row] : rows)
        out.push_back(row);
    return out;
}

std::string
formatLayerTable(const std::vector<LayerRow> &rows, const std::string &title)
{
    std::string out = "# " + title
                      + " (ms; self = total minus direct child spans)\n"
                        "span                        count      items"
                        "    total_ms     self_ms   mean_ms\n";
    for (const LayerRow &row : rows) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%-24s %9llu %10llu %11.3f %11.3f %9.4f\n",
                      spanName(row.kind),
                      static_cast<unsigned long long>(row.count),
                      static_cast<unsigned long long>(row.items),
                      row.totalMs, row.selfMs,
                      row.totalMs / static_cast<double>(row.count));
        out += buf;
    }
    return out;
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = std::fputs(text.c_str(), f) >= 0;
    return std::fclose(f) == 0 && ok;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans, std::size_t limit)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<const SpanRecord *> order;
    for (const SpanRecord &s : spans)
        order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  return a->start < b->start;
              });
    if (order.size() > limit)
        order.resize(limit);
    const std::int64_t origin = order.empty() ? 0 : order.front()->start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < order.size(); ++i) {
        const SpanRecord &s = *order[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"items\":%u}}%s\n",
                     spanName(s.kind), static_cast<unsigned>(s.thread),
                     static_cast<double>(s.start - origin) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3,
                     static_cast<unsigned>(s.id),
                     static_cast<unsigned>(s.items),
                     i + 1 < order.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace servebench
