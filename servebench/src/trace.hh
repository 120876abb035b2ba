/**
 * @file
 * Span recorder for the traced pass.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the library's public functions (the backend lambda handed to the
 * Server, the wire encoder wrapper, Server::submit, the training step
 * phases). They land in one pre-allocated array through an atomic
 * cursor, so recording neither locks nor allocates; when the array is
 * full further spans are counted as dropped. Everything is written out
 * after the timed phases: a Chrome trace-event JSON file and a flat
 * per-layer table with self time.
 */

#ifndef SERVEBENCH_TRACE_HH
#define SERVEBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/** Monotonic clock reading in nanoseconds. */
std::int64_t nowNanos();

/** Every span the benchmark records. */
enum class SpanKind : std::uint16_t
{
    Backend,     //!< the whole backend call the Server makes per batch
    Encoder,     //!< LecaPipeline::encodeFeatures
    Decoder,     //!< LecaDecoder::forward
    Backbone,    //!< Sequential::forward of the frozen backbone
    WireEncode,  //!< the pipelineWireEncoder call for one frame
    Submit,      //!< Server::submit for one frame
    TrainStep,   //!< one whole training step
    BatchWait,   //!< BatchPipeline::batch
    Forward,     //!< forward(Train) + loss
    Backward,    //!< LecaPipeline::backward
    Optimizer,   //!< Adam::step
};

const char *spanName(SpanKind kind);

/** One closed span. */
struct SpanRecord
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t id = 0;    //!< batch / frame / step number
    std::uint32_t items = 0; //!< frames or images the span worked on
    SpanKind kind = SpanKind::Backend;
    std::uint16_t thread = 0;
};

/** Fixed-capacity, lock-free span store; off until enabled. */
class Recorder
{
  public:
    explicit Recorder(std::size_t capacity);

    void setEnabled(bool on) { _enabled.store(on); }
    bool enabled() const { return _enabled.load(std::memory_order_relaxed); }

    void record(SpanKind kind, std::int64_t start, std::int64_t end,
                std::uint32_t id, std::uint32_t items);

    /** Spans recorded so far (call only once recording threads are idle). */
    std::vector<SpanRecord> spans() const;
    std::uint64_t dropped() const { return _dropped.load(); }

  private:
    std::vector<SpanRecord> _slots;
    std::atomic<std::size_t> _next{0};
    std::atomic<std::uint64_t> _dropped{0};
    std::atomic<bool> _enabled{false};
};

/** RAII span: reads the clock only while the recorder is enabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Recorder &recorder, SpanKind kind, std::uint32_t id,
               std::uint32_t items)
        : _recorder(recorder), _kind(kind), _id(id), _items(items),
          _start(recorder.enabled() ? nowNanos() : -1)
    {
    }
    ~ScopedSpan()
    {
        if (_start >= 0)
            _recorder.record(_kind, _start, nowNanos(), _id, _items);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Recorder &_recorder;
    SpanKind _kind;
    std::uint32_t _id;
    std::uint32_t _items;
    std::int64_t _start;
};

/** Aggregate of one span kind. */
struct LayerRow
{
    SpanKind kind = SpanKind::Backend;
    std::uint64_t count = 0;
    std::uint64_t items = 0;
    double totalMs = 0.0;
    double selfMs = 0.0; //!< total minus time covered by direct children
};

/**
 * Per-kind totals and self times. A span's parent is the innermost
 * span on the same thread whose interval contains it; self time is a
 * span's duration minus its direct children's durations.
 */
std::vector<LayerRow> layerTable(const std::vector<SpanRecord> &spans);

/** The table as aligned text, headed by @p title. */
std::string formatLayerTable(const std::vector<LayerRow> &rows,
                             const std::string &title);

/** Spans written to a Chrome trace file; the table covers all of them. */
inline constexpr std::size_t kChromeTraceSpans = 200'000;

/**
 * Write @p spans (at most @p limit, in start order) as Chrome
 * trace-event JSON ("X" complete events, microsecond timestamps).
 * Returns false when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      std::size_t limit);

/** Write @p text to @p path; false on failure. */
bool writeText(const std::string &path, const std::string &text);

} // namespace servebench

#endif // SERVEBENCH_TRACE_HH
