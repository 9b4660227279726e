/**
 * @file
 * The benchmark's own memcached client: a TCP connection, an
 * incremental reply reader that keeps get values (MemcClient's
 * pipeline_flush discards them), and a closed-loop pipelined load loop that
 * runs up to two connections from one thread.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support.h"

namespace kvbench {

/** Append the memcached wire form of op to out. */
void append_wire(const Op& op, std::string* out);

/**
 * Incremental reply parser.  The caller knows which request each reply
 * answers (replies come back in request order), so it asks for the next
 * reply of a given kind.
 */
class ReplyReader
{
  public:
    enum class Status { kNeedMore, kOk, kRefused, kGarbage };

    void feed(const char* data, size_t n);
    /**
     * Parse the next reply to a request of `kind`.  kOk fills *got (for
     * a set: present = STORED; for a delete: present = DELETED).
     * kRefused is a well-framed error line (SERVER_ERROR and friends).
     */
    Status next(OpKind kind, KeyState* got);
    void clear() { buf_.clear(); pos_ = 0; }

  private:
    bool line(std::string_view* out); ///< next CRLF line, consumed
    std::string buf_;
    size_t pos_ = 0;
};

/** A blocking loopback TCP connection (TCP_NODELAY). */
class Conn
{
  public:
    Conn() = default;
    ~Conn() { close(); }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    bool connect(uint16_t port, int attempts = 200);
    /** Take ownership of a connected stream socket. */
    void adopt(int fd) { close(); fd_ = fd; }
    void close();
    int fd() const { return fd_; }
    bool send_all(const std::string& data);
    /** One recv into the reader: bytes read, 0 on EOF, -1 on error. */
    long read_some(ReplyReader* reader);

  private:
    int fd_ = -1;
};

/**
 * Latency samples and acks of one measurement window: a fixed slice of
 * a continuous run, or one whole kill/restart cycle.  End-to-end
 * figures are medians over windows, so a stall of the shared machine
 * that hits a few windows does not move them.
 */
struct Window
{
    static constexpr uint64_t kNs = 500'000'000;

    Samples get, set, del;
    uint64_t acked = 0;
    uint64_t start_ns = 0; ///< steady-clock start of the (first) slice
    uint64_t ns = 0;

    Samples& of(OpKind k) { return k == OpKind::kGet ? get : k == OpKind::kSet ? set : del; }
    const Samples& of(OpKind k) const { return k == OpKind::kGet ? get : k == OpKind::kSet ? set : del; }
    /** Pool another window's samples, acks and time into this one. */
    void add(const Window& o);
};

/** Counters and latency windows of one timed phase. */
struct PhaseStats
{
    std::vector<Window> windows; ///< consecutive kNs slices from the start
    uint64_t start_ns = 0;       ///< steady-clock start of the phase
    uint64_t attempted = 0; ///< requests whose reply was awaited
    uint64_t acked = 0;     ///< requests answered correctly
    uint64_t failed = 0;    ///< wrong, refused or unparseable replies
    uint64_t wall_ns = 0;
    uint64_t idle_ns = 0; ///< load thread waiting on the system

    /** The window `since_start_ns` into the phase falls in. */
    Window& window(uint64_t since_start_ns);
    /** Close the phase: set wall time and each window's start and length. */
    void finish(uint64_t wall);
    /** Add another phase run over the same time grid (other lane). */
    void merge(const PhaseStats& o);
    /** All windows pooled into one (e.g. one crash cycle). */
    Window pooled() const;
};

/**
 * Closed loop over up to two connections, driven by one thread: each
 * lane sends a `depth`-deep pipelined burst and sends the next one only
 * after every reply of the previous burst arrived.  A request's latency
 * runs from the write of its burst to the parse of its reply.
 */
class Pipeline
{
  public:
    /** Next op of a lane; false once the lane's source is exhausted. */
    using Source = std::function<bool(Op*)>;
    /** Verdict on one reply; the default checks and updates the model. */
    using Checker = std::function<bool(const Op&, const KeyState& got)>;

    Pipeline(Model& model, Spans& spans, uint32_t depth);

    void add_lane(Conn* conn, Source source);
    void set_checker(Checker c) { checker_ = std::move(c); }

    /**
     * Run until deadline_ns, until every source is exhausted, until
     * `stop_after_acks` replies were acked in this call (0 = no limit;
     * used to kill a server at a chosen point), or until every
     * connection failed.  A connection that closes, errs or stays
     * silent for 5 s counts its unanswered requests as failed.
     * Samples and spans are recorded when `record` is set.
     */
    PhaseStats run(uint64_t deadline_ns, uint64_t stop_after_acks,
                   bool record);

    /** Ops of each lane's in-flight burst that were never answered. */
    std::vector<Op> unanswered() const;
    /** True when a lane's connection failed (EOF or error). */
    bool broken() const;
    /** Forget in-flight bursts (after the server was killed). */
    void abandon();

  private:
    struct Lane
    {
        Conn* conn = nullptr;
        Source source;
        ReplyReader reader;
        std::vector<Op> burst;
        size_t answered = 0;
        uint64_t t_issue = 0;
        uint64_t burst_span = 0;
        uint64_t burst_seq = 0;
        bool exhausted = false;
        bool broken = false;
    };
    /** Fill and send the lane's next burst; false if none was sent. */
    bool issue(Lane& l);
    /** The lane's connection failed: its unanswered requests fail. */
    void fail(Lane& l, PhaseStats* st);
    void consume(Lane& l, uint32_t lane_id, uint64_t t, Window* w,
                 PhaseStats* st);

    Model& model_;
    Spans& spans_;
    uint32_t depth_;
    Checker checker_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::string wire_;
};

} // namespace kvbench
