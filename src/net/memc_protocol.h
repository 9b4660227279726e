/**
 * @file
 * Incremental parser and reply formatter for the memcached text
 * protocol (the wire format of the paper's Sec. V-A workload).
 *
 * Scope: the four commands a memaslap-style load (and a human with
 * `nc`) needs -- `set`, `get`, `delete`, `quit` -- plus `version`.
 * Values are stored as the 8-byte integers memcached_mini holds, so
 * the data block of a `set` must be the decimal text of a u64 and
 * `get` replies render the same way.  Keys are arbitrary text up to
 * 250 bytes (memcached's limit) and are mapped onto memcached_mini's
 * 16-byte key words by hashing.
 *
 * The parser is push-based and allocation-light: feed() consumes any
 * byte chunking the socket produces (a request split across a hundred
 * reads, or a hundred pipelined requests in one read) and next() pops
 * completed requests in arrival order.  Protocol errors produce a
 * kError request carrying the reply line; errors that desynchronise
 * framing (oversized line, bad byte count) additionally poison the
 * parser so the connection can be dropped, which is what memcached
 * itself does.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>

namespace ido::net {

enum class MemcOp : uint8_t
{
    kGet = 0,
    kSet,
    kDelete,
    kVersion,
    kQuit,
    kStats, ///< admin: metrics snapshot as STAT lines (loop thread)
    kError, ///< malformed input; `message` holds the reply line
};

struct MemcRequest
{
    MemcOp op = MemcOp::kError;
    std::string key;
    uint64_t value = 0;    ///< kSet: parsed data block
    uint32_t flags = 0;    ///< kSet: client flags, echoed by get
    std::string message;   ///< kError: full reply line (CRLF included)
};

class MemcParser
{
  public:
    /** Consume n bytes from the peer (any chunking). */
    void feed(const char* data, size_t n);

    /** Pop the next completed request; false if none pending. */
    bool next(MemcRequest* out);

    /** True after an unrecoverable framing error: drop the connection. */
    bool poisoned() const { return poisoned_; }

    /** Bytes buffered but not yet parsed (tests / backpressure). */
    size_t buffered_bytes() const { return buf_.size(); }

  private:
    void parse_available();
    void parse_line(const char* line, size_t len);

    enum class State : uint8_t { kCommand, kData };

    std::string buf_;
    std::deque<MemcRequest> ready_;
    MemcRequest cur_;      ///< the set awaiting its data block
    size_t data_bytes_ = 0;
    State state_ = State::kCommand;
    bool poisoned_ = false;
};

// --- reply decoding (client side: MemcClient, the router's upstreams) ---

enum class MemcReplyKind : uint8_t
{
    kStored,      ///< STORED
    kValue,       ///< VALUE <key> <flags> <bytes>, data block, END: get hit
    kEnd,         ///< END: get miss
    kDeleted,     ///< DELETED
    kNotFound,    ///< NOT_FOUND
    kVersion,     ///< VERSION <text>
    kStats,       ///< STAT <key> <value> lines, then END
    kServerError, ///< SERVER_ERROR <text>: the peer failed the request
    kError,       ///< ERROR / CLIENT_ERROR <text>: the peer rejected it
};

struct MemcReply
{
    MemcReplyKind kind = MemcReplyKind::kError;
    std::string wire;   ///< the frame's exact bytes (what a proxy relays)
    std::string line;   ///< kVersion and the error kinds: first line, no EOL
    uint32_t flags = 0; ///< kValue
    uint64_t value = 0; ///< kValue: the decimal u64 data block
    std::map<std::string, std::string> stats; ///< kStats
};

/**
 * Incremental reply decoder, the twin of MemcParser.  The text protocol
 * carries no request ids, so a reply's grammar depends on the request
 * it answers: next() takes that request's op.  A VALUE data block is
 * framed by its header's byte count, never by searching for a line end.
 * The error kinds are allowed after every op and keep framing; any
 * other line the op does not allow, a data block that disagrees with
 * its header, or an overlong line makes the stream bad(): framing is
 * lost and the connection must be dropped.
 */
class MemcReplyParser
{
  public:
    /** Consume n bytes from the peer (any chunking). */
    void feed(const char* data, size_t n);

    /** Pop the complete reply to `op`; false if incomplete or bad(). */
    bool next(MemcOp op, MemcReply* out);

    bool bad() const { return bad_; }

    /** Bytes received but not yet returned in a frame. */
    size_t buffered_bytes() const { return buf_.size() - head_; }

    /** Forget everything (new connection). */
    void reset();

  private:
    /** Line starting at *pos, EOL excluded; advances *pos past it. */
    bool take_line(size_t* pos, std::string_view* line);
    /** The rest of a frame whose first line is `line`; see next(). */
    bool take_body(MemcOp op, std::string_view line, size_t* pos,
                   MemcReply* out);

    std::string buf_;
    size_t head_ = 0; ///< start of the first unreturned frame
    bool bad_ = false;
};

// --- reply formatting (exact memcached framing) ------------------------

std::string memc_reply_stored();
std::string memc_reply_value(const std::string& key, uint32_t flags,
                             uint64_t value); ///< VALUE..data..END
std::string memc_reply_miss();               ///< END (get miss)
std::string memc_reply_deleted(bool found);  ///< DELETED / NOT_FOUND
std::string memc_reply_version();
std::string memc_reply_error();              ///< unknown command
std::string memc_reply_stat(const std::string& key,
                            const std::string& value); ///< STAT k v

/**
 * Re-serialize a parsed data request (set/get/delete) to its exact
 * wire form.  The cluster router and the replication forwarder use it
 * to relay a request to an upstream node; other ops return "".
 */
std::string memc_wire_request(const MemcRequest& rq);

/**
 * Map a text key onto memcached_mini's (key_lo, key_hi) words.
 * Deterministic across processes (no seed), so a client can address
 * the same item before and after a server restart.
 */
std::pair<uint64_t, uint64_t> memc_key_words(const std::string& key);

} // namespace ido::net
