/**
 * @file
 * kvbench building blocks shared by the workloads, the layer ladder and
 * the self-test: seeded request streams, the per-slice value model that
 * checks every reply, exact-sample percentiles, in-memory trace spans
 * and small readers for what the program exports (/stats.json,
 * /recovery, /proc).
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace kvbench {

inline uint64_t
now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// --- request streams ---------------------------------------------------

enum class OpKind : uint8_t { kGet, kSet, kDel };

struct Op
{
    OpKind kind = OpKind::kGet;
    uint32_t key = 0;   ///< global key index
    uint64_t value = 0; ///< kSet only
};

/** Operation mix in parts per thousand (get takes the rest). */
struct Mix
{
    uint32_t set_permille = 0;
    uint32_t del_permille = 0;
};

/** A half-open range of key indices owned by one load lane. */
struct Slice
{
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t size() const { return end - begin; }
};

/**
 * Deterministic stream of one lane: the same (seed, lane) always yields
 * the same operations, and lanes of one seed draw independent streams.
 */
class StreamGen
{
  public:
    StreamGen(uint64_t seed, uint32_t lane, Slice slice, Mix mix);
    Op next();

  private:
    ido::Rng rng_;
    Slice slice_;
    Mix mix_;
};

/** Memcached key text of a global key index. */
std::string key_text(uint32_t key);

/** Value a key is prefilled with (seeded, so runs are reproducible). */
inline uint64_t
prefill_value(uint64_t seed, uint32_t key)
{
    uint64_t s = seed ^ (uint64_t{key} << 20) ^ 0x5bf03635f0a1b2c3ull;
    return ido::splitmix64(s);
}

// --- reply model -------------------------------------------------------

/** What the store holds for one key, as far as the benchmark knows. */
struct KeyState
{
    bool present = false;
    uint64_t value = 0;
    bool operator==(const KeyState&) const = default;
};

/**
 * Expected contents of the keys a run touches.  Each slice is owned by
 * exactly one lane, so lanes update disjoint entries without locking.
 * Updates are applied only on a durable acknowledgement.
 */
class Model
{
  public:
    explicit Model(uint32_t nkeys) : states_(nkeys) {}

    const KeyState& at(uint32_t key) const { return states_[key]; }
    /** Apply an acknowledged write (set or delete). */
    void apply(const Op& op);
    /** Adopt a state a crash audit accepted. */
    void set(uint32_t key, const KeyState& s) { states_[key] = s; }
    uint64_t live_items() const;

  private:
    std::vector<KeyState> states_;
};

/**
 * Check one reply against the model.  For a get, `got` is what the
 * store returned; for a delete, got.present is whether it answered
 * DELETED.  Returns false on a mismatch.
 */
bool check_reply(const Model& model, const Op& op, const KeyState& got);

/**
 * Crash audit of one key: after a restart, `seen` must equal the
 * acknowledged state, or the state after some prefix of the writes that
 * were in flight unacknowledged when the server died (a write is never
 * partly visible, and per-key order is preserved).  Returns false on a
 * lost acknowledged write or a torn/foreign value.
 */
bool crash_state_ok(const KeyState& acked,
                    const std::vector<Op>& unacked_writes,
                    const KeyState& seen);

// --- statistics --------------------------------------------------------

/**
 * Latency samples (ns) of one operation kind.  percentile() reports a
 * value only when at least ten samples lie beyond it, so p99 needs at
 * least 1000 samples.
 */
class Samples
{
  public:
    void add(uint64_t ns)
    {
        v_.push_back(ns > UINT32_MAX ? UINT32_MAX
                                     : static_cast<uint32_t>(ns));
    }
    void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
    size_t count() const { return v_.size(); }
    /** q in (0,1); false when fewer than 10 samples lie beyond it. */
    bool percentile(double q, double* out_ns) const;
    /** Arithmetic mean; false with fewer than 10 samples. */
    bool mean(double* out_ns) const;

  private:
    mutable std::vector<uint32_t> v_;
};

double median(std::vector<double> v);

/** One measured value and the steady-clock interval it covers. */
struct Timed
{
    double value = 0;
    uint64_t start_ns = 0, end_ns = 0;
};

// --- tracing -----------------------------------------------------------

/**
 * In-memory span recorder.  Spans carry a name, start, end, parent span
 * and request id, are kept in memory up to a cap, and are written once
 * at the end of the run as Chrome trace-event JSON (Perfetto opens it).
 * Disabled recorders cost one branch per call.
 */
class Spans
{
  public:
    static constexpr size_t kCap = 400000;

    explicit Spans(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    /** A fresh span id, so children can name a parent that ends later. */
    uint64_t open() { return enabled_ ? ++next_id_ : 0; }
    /** Record a finished span under an id from open(). */
    void add(uint64_t id, const char* name, uint32_t lane,
             uint64_t start_ns, uint64_t end_ns, uint64_t parent,
             uint64_t req);
    size_t recorded() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }
    bool write_chrome(const std::string& path) const;

  private:
    struct Span
    {
        uint64_t id;
        const char* name;
        uint32_t lane;
        uint64_t start_ns, end_ns, parent, req;
    };
    bool enabled_;
    std::vector<Span> spans_;
    uint64_t next_id_ = 0;
    uint64_t dropped_ = 0;
};

// --- readers for exported state ----------------------------------------

/**
 * Number at the end of a key path in a JSON body, e.g.
 * {"latencies", "net.lat.queue", "p50_ns"}.  Each key is searched after
 * the previous one; good enough for the flat exports of this program.
 */
bool json_number(const std::string& body,
                 const std::vector<std::string>& path, double* out);

/**
 * One SCHED_IDLE busy loop on every CPU this process may use, while
 * alive.  The CPUs then never go idle, so the host of a virtual machine
 * never deschedules them for idleness, and a waking thread of the store
 * or of the load generator starts at once instead of after the host
 * reschedules its CPU (the effect of booting with idle=poll).  Any
 * normal thread preempts a spinner immediately.
 */
class IdleSpinners
{
  public:
    IdleSpinners();
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners&) = delete;
    IdleSpinners& operator=(const IdleSpinners&) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/** Peak resident set (VmHWM) of a process in MiB; 0 if unreadable. */
double peak_rss_mb(int pid);

/** Machine-wide CPU time (first line of /proc/stat), in clock ticks. */
struct CpuTicks
{
    uint64_t total = 0;
    uint64_t steal = 0; ///< time the hypervisor ran something else
};
CpuTicks cpu_ticks();
/** Share of CPU time stolen by the host between a and b, in percent. */
double steal_pct(const CpuTicks& a, const CpuTicks& b);

/**
 * Host steal time over the run: a thread samples /proc/stat every
 * 100 ms, so the steal behind any measurement can be looked up
 * afterwards by the measurement's start and end.
 */
class StealTimeline
{
  public:
    StealTimeline();
    ~StealTimeline();
    StealTimeline(const StealTimeline&) = delete;
    StealTimeline& operator=(const StealTimeline&) = delete;

    /** Steal in percent over the samples that enclose [t0, t1). */
    double steal_pct(uint64_t t0_ns, uint64_t t1_ns) const;

  private:
    struct Sample
    {
        uint64_t t_ns;
        CpuTicks ticks;
    };
    mutable std::mutex mu_;
    std::vector<Sample> samples_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * One JSON object describing machine, build, seed, the host steal time
 * over the run, and whether the run's figures are comparable with
 * other runs (see README.md, "Noise").
 */
std::string machine_tags(uint64_t seed, const std::string& commit,
                         double steal, bool comparable);

} // namespace kvbench
