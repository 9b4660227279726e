#include "net/memc_protocol.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

namespace ido::net {

namespace {

/// memcached rejects keys longer than 250 bytes.
constexpr size_t kMaxKeyLen = 250;
/// Values are decimal u64 text: 20 digits is the widest legal block.
constexpr size_t kMaxDataLen = 20;
/// A command line longer than this cannot be well formed.
constexpr size_t kMaxLineLen = 512;

/** Split a command line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const char* line, size_t len)
{
    std::vector<std::string> toks;
    size_t i = 0;
    while (i < len) {
        while (i < len && line[i] == ' ')
            ++i;
        size_t start = i;
        while (i < len && line[i] != ' ')
            ++i;
        if (i > start)
            toks.emplace_back(line + start, i - start);
    }
    return toks;
}

bool
parse_u64(std::string_view s, uint64_t* out)
{
    if (s.empty() || s.size() > 20)
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = v;
    return true;
}

MemcRequest
make_error(const char* msg)
{
    MemcRequest r;
    r.op = MemcOp::kError;
    r.message = msg;
    return r;
}

} // namespace

void
MemcParser::feed(const char* data, size_t n)
{
    if (poisoned_)
        return;
    buf_.append(data, n);
    parse_available();
}

bool
MemcParser::next(MemcRequest* out)
{
    if (ready_.empty())
        return false;
    *out = std::move(ready_.front());
    ready_.pop_front();
    return true;
}

void
MemcParser::parse_available()
{
    size_t pos = 0;
    while (!poisoned_) {
        if (state_ == State::kData) {
            // Need the data block plus its trailing CRLF.
            if (buf_.size() - pos < data_bytes_ + 2)
                break;
            const char* block = buf_.data() + pos;
            if (block[data_bytes_] != '\r' || block[data_bytes_ + 1] != '\n') {
                // Byte count disagrees with framing: unrecoverable.
                poisoned_ = true;
                ready_.push_back(
                    make_error("CLIENT_ERROR bad data chunk\r\n"));
                break;
            }
            uint64_t value = 0;
            if (parse_u64(std::string(block, data_bytes_), &value)) {
                cur_.value = value;
                ready_.push_back(std::move(cur_));
            } else {
                ready_.push_back(
                    make_error("CLIENT_ERROR bad data chunk\r\n"));
            }
            cur_ = MemcRequest{};
            pos += data_bytes_ + 2;
            data_bytes_ = 0;
            state_ = State::kCommand;
            continue;
        }
        const size_t nl = buf_.find('\n', pos);
        if (nl == std::string::npos) {
            if (buf_.size() - pos > kMaxLineLen) {
                poisoned_ = true;
                ready_.push_back(make_error("ERROR\r\n"));
            }
            break;
        }
        size_t len = nl - pos;
        if (len > 0 && buf_[pos + len - 1] == '\r')
            --len;
        if (len > kMaxLineLen) {
            poisoned_ = true;
            ready_.push_back(make_error("ERROR\r\n"));
            break;
        }
        parse_line(buf_.data() + pos, len);
        pos = nl + 1;
    }
    buf_.erase(0, pos);
}

void
MemcParser::parse_line(const char* line, size_t len)
{
    std::vector<std::string> toks = tokenize(line, len);
    if (toks.empty())
        return; // bare newline: ignore, like a telnet user hitting enter
    const std::string& cmd = toks[0];

    if (cmd == "get" || cmd == "gets") {
        if (toks.size() != 2 || toks[1].size() > kMaxKeyLen) {
            ready_.push_back(make_error("ERROR\r\n"));
            return;
        }
        MemcRequest r;
        r.op = MemcOp::kGet;
        r.key = toks[1];
        ready_.push_back(std::move(r));
        return;
    }
    if (cmd == "set") {
        // set <key> <flags> <exptime> <bytes>
        uint64_t flags = 0, exptime = 0, bytes = 0;
        if (toks.size() != 5 || toks[1].size() > kMaxKeyLen ||
            !parse_u64(toks[2], &flags) || !parse_u64(toks[3], &exptime) ||
            !parse_u64(toks[4], &bytes)) {
            ready_.push_back(make_error("ERROR\r\n"));
            return;
        }
        if (bytes > kMaxDataLen) {
            // We cannot resynchronise without trusting the count, and
            // a count this size is bogus for u64 values.
            poisoned_ = true;
            ready_.push_back(
                make_error("SERVER_ERROR object too large for cache\r\n"));
            return;
        }
        cur_ = MemcRequest{};
        cur_.op = MemcOp::kSet;
        cur_.key = toks[1];
        cur_.flags = static_cast<uint32_t>(flags);
        data_bytes_ = bytes;
        state_ = State::kData;
        return;
    }
    if (cmd == "delete") {
        if (toks.size() != 2 || toks[1].size() > kMaxKeyLen) {
            ready_.push_back(make_error("ERROR\r\n"));
            return;
        }
        MemcRequest r;
        r.op = MemcOp::kDelete;
        r.key = toks[1];
        ready_.push_back(std::move(r));
        return;
    }
    if (cmd == "stats") {
        if (toks.size() != 1) { // sub-arguments not supported
            ready_.push_back(make_error("ERROR\r\n"));
            return;
        }
        MemcRequest r;
        r.op = MemcOp::kStats;
        ready_.push_back(std::move(r));
        return;
    }
    if (cmd == "version") {
        MemcRequest r;
        r.op = MemcOp::kVersion;
        ready_.push_back(std::move(r));
        return;
    }
    if (cmd == "quit") {
        MemcRequest r;
        r.op = MemcOp::kQuit;
        ready_.push_back(std::move(r));
        return;
    }
    ready_.push_back(make_error("ERROR\r\n"));
}

void
MemcReplyParser::feed(const char* data, size_t n)
{
    // Returned frames are dropped here rather than in next(): callers
    // take every whole frame before reading again, so what is left is
    // one partial frame and the erase stays cheap.
    buf_.erase(0, head_);
    head_ = 0;
    buf_.append(data, n);
}

void
MemcReplyParser::reset()
{
    buf_.clear();
    head_ = 0;
    bad_ = false;
}

bool
MemcReplyParser::next(MemcOp op, MemcReply* out)
{
    size_t pos = head_;
    std::string_view line;
    if (bad_ || !take_line(&pos, &line) || !take_body(op, line, &pos, out))
        return false;
    out->wire.assign(buf_, head_, pos - head_);
    head_ = pos;
    return true;
}

bool
MemcReplyParser::take_line(size_t* pos, std::string_view* line)
{
    const size_t nl = buf_.find('\n', *pos);
    const size_t len = (nl == std::string::npos ? buf_.size() : nl) - *pos;
    if (len > kMaxLineLen + 1) { // +1: the CR
        bad_ = true;
        return false;
    }
    if (nl == std::string::npos)
        return false;
    *line = std::string_view(buf_).substr(*pos, len);
    if (!line->empty() && line->back() == '\r')
        line->remove_suffix(1);
    *pos = nl + 1;
    return true;
}

bool
MemcReplyParser::take_body(MemcOp op, std::string_view line, size_t* pos,
                           MemcReply* out)
{
    const auto is = [out](MemcReplyKind k) {
        out->kind = k;
        return true;
    };
    out->line.clear();
    out->flags = 0;
    out->value = 0;
    out->stats.clear();
    if (line == "ERROR" || line.starts_with("CLIENT_ERROR ")) {
        out->line = line;
        return is(MemcReplyKind::kError);
    }
    if (line.starts_with("SERVER_ERROR")) {
        out->line = line;
        return is(MemcReplyKind::kServerError);
    }
    switch (op) {
    case MemcOp::kSet:
        if (line == "STORED")
            return is(MemcReplyKind::kStored);
        break;
    case MemcOp::kDelete:
        if (line == "DELETED")
            return is(MemcReplyKind::kDeleted);
        if (line == "NOT_FOUND")
            return is(MemcReplyKind::kNotFound);
        break;
    case MemcOp::kVersion:
        if (line.starts_with("VERSION ")) {
            out->line = line;
            return is(MemcReplyKind::kVersion);
        }
        break;
    case MemcOp::kGet: {
        if (line == "END")
            return is(MemcReplyKind::kEnd);
        if (!line.starts_with("VALUE "))
            break;
        // VALUE <key> <flags> <bytes>: keys hold no spaces (MemcParser
        // tokenizes on them), so the counts are the last two tokens.
        const size_t b = line.rfind(' ');
        const size_t f = line.rfind(' ', b - 1);
        uint64_t flags = 0, bytes = 0, value = 0;
        if (f == std::string_view::npos || f < 7 ||
            !parse_u64(line.substr(f + 1, b - f - 1), &flags) ||
            flags > UINT32_MAX || !parse_u64(line.substr(b + 1), &bytes) ||
            bytes > kMaxDataLen)
            break;
        if (buf_.size() - *pos < bytes + 2)
            return false;
        const char* data = buf_.data() + *pos;
        if (data[bytes] != '\r' || data[bytes + 1] != '\n' ||
            !parse_u64(std::string_view(data, bytes), &value))
            break; // the block disagrees with its byte count
        *pos += bytes + 2;
        if (!take_line(pos, &line))
            return false;
        if (line != "END")
            break;
        out->flags = static_cast<uint32_t>(flags);
        out->value = value;
        return is(MemcReplyKind::kValue);
    }
    case MemcOp::kStats:
        while (line.starts_with("STAT ")) {
            const size_t sp = line.find(' ', 5);
            if (sp == std::string_view::npos)
                break;
            out->stats[std::string(line.substr(5, sp - 5))] =
                std::string(line.substr(sp + 1));
            if (!take_line(pos, &line))
                return false;
        }
        if (line == "END")
            return is(MemcReplyKind::kStats);
        break;
    default:
        break;
    }
    bad_ = true;
    return false;
}

std::string
memc_reply_stored()
{
    return "STORED\r\n";
}

std::string
memc_reply_value(const std::string& key, uint32_t flags, uint64_t value)
{
    char data[32];
    int dlen = std::snprintf(data, sizeof data, "%" PRIu64, value);
    char head[320];
    int hlen = std::snprintf(head, sizeof head, "VALUE %s %u %d\r\n",
                             key.c_str(), flags, dlen);
    std::string out(head, static_cast<size_t>(hlen));
    out.append(data, static_cast<size_t>(dlen));
    out += "\r\nEND\r\n";
    return out;
}

std::string
memc_reply_miss()
{
    return "END\r\n";
}

std::string
memc_reply_deleted(bool found)
{
    return found ? "DELETED\r\n" : "NOT_FOUND\r\n";
}

std::string
memc_reply_version()
{
    return "VERSION ido-serve 1.0\r\n";
}

std::string
memc_reply_error()
{
    return "ERROR\r\n";
}

std::string
memc_reply_stat(const std::string& key, const std::string& value)
{
    return "STAT " + key + " " + value + "\r\n";
}

std::string
memc_wire_request(const MemcRequest& rq)
{
    switch (rq.op) {
    case MemcOp::kSet: {
        char data[32];
        const int dlen = std::snprintf(data, sizeof data, "%" PRIu64,
                                       rq.value);
        char head[320];
        const int hlen =
            std::snprintf(head, sizeof head, "set %s %u 0 %d\r\n",
                          rq.key.c_str(), rq.flags, dlen);
        std::string out(head, static_cast<size_t>(hlen));
        out.append(data, static_cast<size_t>(dlen));
        out += "\r\n";
        return out;
    }
    case MemcOp::kGet:
        return "get " + rq.key + "\r\n";
    case MemcOp::kDelete:
        return "delete " + rq.key + "\r\n";
    default:
        return std::string(); // not a forwardable data op
    }
}

std::pair<uint64_t, uint64_t>
memc_key_words(const std::string& key)
{
    // Two FNV-1a streams with different offset bases.  Must stay
    // deterministic across processes: clients address items by text
    // key across server restarts.
    uint64_t lo = 0xcbf29ce484222325ull;
    uint64_t hi = 0x84222325cbf29ce4ull;
    for (unsigned char c : key) {
        lo = (lo ^ c) * 0x100000001b3ull;
        hi = (hi ^ (c + 0x9eu)) * 0x100000001b3ull;
    }
    // memcached_mini treats key words as opaque; 0,0 is fine, no need
    // to reserve sentinels.
    return {lo, hi};
}

} // namespace ido::net
