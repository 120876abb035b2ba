/**
 * @file
 * Serve workloads: one generator thread multiplexing many sessions
 * against a leca::serve::Server, in open-loop camera ladders and a
 * saturating closed loop, with every served output checked afterwards.
 */

#ifndef SERVEBENCH_SERVE_WORKLOAD_HH
#define SERVEBENCH_SERVE_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.hh"
#include "trace.hh"
#include "util/rng.hh"

namespace servebench {

/** Fixed settings of one serve workload. */
struct ServeSpec
{
    const char *name;
    int hw;                       //!< square RGB frame extent
    bool int8;                    //!< quantizedPipelineBackend vs fp32
    bool wire;                    //!< attach pipelineWireEncoder payloads
    int maxBatch;
    std::int64_t maxWaitMicros;
    double sessionFps;            //!< per-camera frame rate
    std::array<int, 3> ladder;    //!< cameras per open-loop step
    int nominalStep;              //!< ladder index latency is read at
    double latencyLimitMs;        //!< tail limit for max_rate_fps
    int outstanding;              //!< closed-loop frames in flight (2 batches:
                                  //!< the queue never runs dry)
    int poolSize;                 //!< distinct seeded frames
    double maxRateFps;            //!< record-buffer sizing bound
};

/** The spec named @p name, or nullptr. */
const ServeSpec *findServeSpec(const std::string &name);

inline constexpr int kMaxClasses = 16;

/** Seeded frames plus everything their served outputs must match. */
struct FramePool
{
    std::vector<leca::Tensor> frames;               //!< {3, hw, hw}
    std::vector<std::vector<float>> logits;          //!< reference
    std::vector<std::vector<std::uint8_t>> codes;    //!< empty: no wire
};

/** One submitted frame, filled at submit and at harvest. */
struct FrameRecord
{
    std::int32_t pool = -1;
    std::uint32_t session = 0;
    std::uint64_t frameIndex = 0;
    std::int64_t due = 0;
    std::int64_t submitStart = 0;
    std::int64_t submitEnd = 0;
    leca::serve::ServeStatus status = leca::serve::ServeStatus::Closed;
    bool identityOk = false;
    std::int64_t queueNanos = 0;
    std::int64_t batchNanos = 0;
    std::int64_t totalNanos = 0;
    int batchSize = 0;
    int classes = 0;
    std::array<float, kMaxClasses> logits{};
    std::uint32_t wireOffset = 0;
    std::uint32_t wireSize = 0;
};

/** Outcome of one timed phase after its check. */
struct PhaseResult
{
    std::string label;
    double offeredFps = 0.0;      //!< open loop only
    std::vector<FrameRecord> records;
    std::vector<std::uint8_t> wireBytes;
    std::vector<std::int64_t> queueDepths;
    std::int64_t startNanos = 0;
    std::int64_t endNanos = 0;
    std::uint64_t batches = 0;    //!< server batches during the phase
    std::uint64_t heapAllocs = 0; //!< process-wide, during the phase

    // Filled by the check.
    std::uint64_t ok = 0;
    std::uint64_t notOk = 0;       //!< shed, expired, closed, errored
    std::uint64_t wrongIdentity = 0;
    std::uint64_t wrongLogits = 0;
    std::uint64_t wrongWire = 0;
    double wireDecodeMs = 0.0;     //!< total decodeByteStream time
    double wirePayloadBytes = 0.0; //!< total over Ok frames

    std::uint64_t failed() const
    {
        return notOk + wrongIdentity + wrongLogits + wrongWire;
    }
    double wallSeconds() const
    {
        return static_cast<double>(endNanos - startNanos) / 1e9;
    }
    /** Ok frames per second of wall time (the closed loop's capacity). */
    double okPerSecond() const
    {
        return endNanos > startNanos ? static_cast<double>(ok) / wallSeconds()
                                     : 0.0;
    }
};

/**
 * Drives one Server from the calling thread. The server and pool are
 * borrowed; the harness opens the sessions and owns the ticket rings.
 */
class ServeHarness
{
  public:
    ServeHarness(leca::serve::Server &server, const FramePool &pool,
                 int sessions, int ring_depth);

    /**
     * Open loop: @p sessions periodic cameras at @p fps each, phase
     * offsets and clock drifts (stratified over +-1 %) drawn from
     * @p rng, and a seeded pool frame per due time, for @p seconds.
     */
    PhaseResult openLoop(int sessions, double fps, double seconds,
                         leca::Rng &rng, Recorder *recorder);

    /**
     * Closed loop: keep @p outstanding frames in flight for @p seconds
     * (round-robin over @p sessions), or until @p max_frames were sent.
     */
    PhaseResult closedLoop(int sessions, int outstanding, double seconds,
                           std::size_t max_frames, leca::Rng &rng,
                           Recorder *recorder);

    /** Compare every record against the pool's references. */
    void check(PhaseResult &phase) const;

    /**
     * Stop the server, catching a rethrown backend exception into
     * @p error. Returns whether the server stopped cleanly.
     */
    bool stop(std::string &error);

    std::uint64_t submitted() const { return _submitted; }

  private:
    struct Slot
    {
        leca::serve::FrameTicket ticket;
        std::int64_t record = -1;
    };

    void submit(PhaseResult &phase, std::size_t record_index, Slot &slot,
                int session, int pool_index, std::int64_t due,
                Recorder *recorder);
    void harvest(PhaseResult &phase, Slot &slot);

    leca::serve::Server &_server;
    const FramePool &_pool;
    std::vector<leca::serve::Session> _sessions;
    std::vector<std::uint64_t> _sessionFrames;
    int _ringDepth;
    std::vector<std::unique_ptr<Slot[]>> _rings;
    std::vector<std::size_t> _ringCursor;
    std::uint64_t _submitted = 0;
};

/** Per-batch span accounting of one traced phase. */
struct Accounting
{
    std::uint64_t batches = 0;
    std::uint64_t violations = 0;
    bool matched = false;        //!< records grouped onto spans
    double batchMs = 0.0;        //!< sum of batchNanos
    double backendMs = 0.0;
    double stagesMs = 0.0;       //!< encoder + decoder + backbone
    double wireMs = 0.0;
    double overheadMs = 0.0;     //!< batchNanos - backend - wire
};

/**
 * Per-batch tolerance of the accounting: the backend span not covered
 * by its encoder, decoder and backbone spans may be at most this share
 * of batchNanos, or kAccountSlackNanos, whichever is larger.
 */
inline constexpr double kAccountShare = 0.02;
inline constexpr std::int64_t kAccountSlackNanos = 20'000;
/** Share of batches allowed outside the tolerance (preemption). */
inline constexpr double kAccountViolationShare = 0.01;

/**
 * Match @p phase's records (FIFO order: each batch is a run of
 * consecutive submissions) to the backend spans with ids 0, 1, ...
 * recorded inside the phase, and check that the stage spans plus the
 * serve overhead account for each batch's batchNanos.
 */
Accounting accountBatches(const PhaseResult &phase,
                          const std::vector<SpanRecord> &spans);

/** Run serve workload @p spec; returns the process exit code. */
int runServeWorkload(const ServeSpec &spec, std::uint64_t seed,
                     double seconds, bool trace, const std::string &revision,
                     const std::string &out_dir);

} // namespace servebench

#endif // SERVEBENCH_SERVE_WORKLOAD_HH
