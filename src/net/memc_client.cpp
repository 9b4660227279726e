#include "net/memc_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

namespace ido::net {

namespace {

/// Per-read timeout: generous for CI, small enough that a test which
/// kills the server mid-reply fails fast instead of hanging.
constexpr int kReadTimeoutMs = 5000;

std::string
wire(MemcOp op, const std::string& key, uint64_t value = 0)
{
    MemcRequest rq;
    rq.op = op;
    rq.key = key;
    rq.value = value;
    return memc_wire_request(rq);
}

} // namespace

const char*
client_error_name(ClientError e)
{
    switch (e) {
      case ClientError::kNone:
        return "none";
      case ClientError::kNotConnected:
        return "not_connected";
      case ClientError::kConnectFailed:
        return "connect_failed";
      case ClientError::kSendFailed:
        return "send_failed";
      case ClientError::kDisconnected:
        return "disconnected";
      case ClientError::kTimeout:
        return "timeout";
      case ClientError::kProtocol:
        return "protocol";
      case ClientError::kServerError:
        return "server_error";
    }
    return "?";
}

bool
MemcClient::fail(ClientError e)
{
    last_error_ = e;
    return false;
}

MemcClient::~MemcClient()
{
    close();
}

bool
MemcClient::connect(const std::string& host, uint16_t port)
{
    close();
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return fail(ClientError::kConnectFailed);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return fail(ClientError::kConnectFailed);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return fail(ClientError::kConnectFailed);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd_ = fd;
    replies_.reset();
    last_error_ = ClientError::kNone;
    return true;
}

bool
MemcClient::connect_retry(const std::string& host, uint16_t port,
                          int attempts, int backoff_ms)
{
    int delay = backoff_ms;
    for (int i = 0; i < attempts; ++i) {
        if (connect(host, port))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        delay = std::min(delay * 2, backoff_ms * 10);
    }
    return false; // last_error_ left from the final connect attempt
}

void
MemcClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    replies_.reset();
    pipeline_.clear();
    pipeline_kinds_.clear();
}

bool
MemcClient::send_all(const char* data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
        if (w > 0) {
            off += static_cast<size_t>(w);
            continue;
        }
        if (errno == EINTR)
            continue;
        return fail(ClientError::kSendFailed); // EPIPE/ECONNRESET
    }
    return true;
}

bool
MemcClient::read_reply(MemcOp op, MemcReply* out)
{
    while (!replies_.next(op, out)) {
        if (replies_.bad())
            return fail(ClientError::kProtocol);
        struct pollfd pfd = {fd_, POLLIN, 0};
        int pr = ::poll(&pfd, 1, kReadTimeoutMs);
        if (pr == 0)
            return fail(ClientError::kTimeout);
        if (pr < 0)
            return fail(ClientError::kDisconnected);
        char buf[8192];
        ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n > 0) {
            replies_.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return fail(ClientError::kDisconnected); // EOF or hard error
    }
    return true;
}

bool
MemcClient::refused(const MemcReply& r)
{
    if (r.kind == MemcReplyKind::kServerError)
        fail(ClientError::kServerError);
    else if (r.kind == MemcReplyKind::kError)
        fail(ClientError::kProtocol); // the peer could not parse us
    else
        return false;
    return true;
}

bool
MemcClient::call(MemcOp op, const std::string& request, MemcReply* out)
{
    if (fd_ < 0)
        return fail(ClientError::kNotConnected);
    if (!send_all(request.data(), request.size()) || !read_reply(op, out) ||
        refused(*out))
        return false;
    last_error_ = ClientError::kNone;
    return true;
}

bool
MemcClient::set(const std::string& key, uint64_t value)
{
    MemcReply r;
    return call(MemcOp::kSet, wire(MemcOp::kSet, key, value), &r);
}

bool
MemcClient::get(const std::string& key, uint64_t* value)
{
    MemcReply r;
    // A miss (END) is an answer, not a failure: false with kNone.
    if (!call(MemcOp::kGet, wire(MemcOp::kGet, key), &r) ||
        r.kind != MemcReplyKind::kValue)
        return false;
    if (value)
        *value = r.value;
    return true;
}

bool
MemcClient::del(const std::string& key)
{
    MemcReply r;
    // NOT_FOUND is an answer, not a failure: false with kNone.
    return call(MemcOp::kDelete, wire(MemcOp::kDelete, key), &r) &&
           r.kind == MemcReplyKind::kDeleted;
}

std::string
MemcClient::version()
{
    MemcReply r;
    return call(MemcOp::kVersion, "version\r\n", &r) ? r.line
                                                      : std::string();
}

bool
MemcClient::stats(std::map<std::string, std::string>* out)
{
    if (out)
        out->clear();
    MemcReply r;
    if (!call(MemcOp::kStats, "stats\r\n", &r))
        return false;
    if (out)
        *out = std::move(r.stats);
    return true;
}

void
MemcClient::pipeline_set(const std::string& key, uint64_t value)
{
    pipeline_ += wire(MemcOp::kSet, key, value);
    pipeline_kinds_.push_back(MemcOp::kSet);
}

void
MemcClient::pipeline_get(const std::string& key)
{
    pipeline_ += wire(MemcOp::kGet, key);
    pipeline_kinds_.push_back(MemcOp::kGet);
}

void
MemcClient::pipeline_del(const std::string& key)
{
    pipeline_ += wire(MemcOp::kDelete, key);
    pipeline_kinds_.push_back(MemcOp::kDelete);
}

size_t
MemcClient::pipeline_flush(size_t max_acks)
{
    const std::vector<MemcOp> kinds = std::move(pipeline_kinds_);
    pipeline_kinds_.clear();
    const size_t expected = std::min(kinds.size(), max_acks);
    if (fd_ < 0) {
        pipeline_.clear();
        fail(ClientError::kNotConnected);
        return 0;
    }
    const bool sent = send_all(pipeline_.data(), pipeline_.size());
    pipeline_.clear();
    last_error_ = ClientError::kNone;
    size_t acks = 0;
    // Count acks even after a send failure: the server may have
    // executed (and durably committed) a prefix before dying.  Every
    // non-error reply acks: a get's hit or miss, a delete's DELETED or
    // NOT_FOUND (both are durable outcomes).
    MemcReply r;
    while (acks < expected) {
        if (!read_reply(kinds[acks], &r) || refused(r))
            break; // last_error_ says why
        ++acks;
    }
    if (!sent && last_error_ == ClientError::kNone)
        fail(ClientError::kSendFailed);
    return acks;
}

} // namespace ido::net
