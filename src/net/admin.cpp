#include "net/admin.h"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/panic.h"

namespace ido::net {

namespace {

/// A legitimate scraper GET fits in one packet; anything bigger is
/// garbage and gets the connection dropped.
constexpr size_t kMaxHead = 16 * 1024;

std::string
http_response(int code, const char* reason,
              const std::string& content_type, const std::string& body)
{
    char head[256];
    int n = std::snprintf(head, sizeof head,
                          "HTTP/1.0 %d %s\r\n"
                          "Content-Type: %s\r\n"
                          "Content-Length: %zu\r\n"
                          "Connection: close\r\n\r\n",
                          code, reason, content_type.c_str(),
                          body.size());
    std::string out(head, static_cast<size_t>(n));
    out += body;
    return out;
}

} // namespace

AdminEndpoint::AdminEndpoint(uint16_t port)
{
    listen_fd_ = listen_loopback(port, 16, "admin", &port_);
}

AdminEndpoint::~AdminEndpoint()
{
    stop();
    for (auto& [fd, c] : conns_)
        if (c->fd >= 0)
            ::close(c->fd);
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

void
AdminEndpoint::route(const std::string& path,
                     const std::string& content_type, Handler handler)
{
    routes_[path] = Route{ content_type, std::move(handler) };
}

void
AdminEndpoint::start(EventLoop& loop)
{
    loop_ = &loop;
    loop_->add(listen_fd_, EPOLLIN,
               [this](uint32_t ev) { on_accept(ev); });
}

void
AdminEndpoint::stop()
{
    if (loop_ == nullptr)
        return;
    for (auto& [fd, c] : conns_)
        if (c->fd >= 0)
            loop_->del(c->fd);
    loop_->del(listen_fd_);
    loop_ = nullptr;
}

void
AdminEndpoint::on_accept(uint32_t events)
{
    if (!(events & EPOLLIN))
        return;
    for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN and everything else: try again next event
        }
        set_nonblocking(fd);
        auto c = std::make_unique<AdminConn>();
        c->fd = fd;
        conns_[fd] = std::move(c);
        loop_->add(fd, EPOLLIN,
                   [this, fd](uint32_t ev) { on_conn_event(fd, ev); });
    }
}

void
AdminEndpoint::on_conn_event(int fd, uint32_t events)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    AdminConn& c = *it->second;
    if (events & (EPOLLHUP | EPOLLERR)) {
        close_conn(fd);
        return;
    }
    if (events & EPOLLIN) {
        char buf[4096];
        for (;;) {
            ssize_t n = ::read(c.fd, buf, sizeof buf);
            if (n > 0) {
                c.in.append(buf, static_cast<size_t>(n));
                if (c.in.size() > kMaxHead) {
                    close_conn(fd);
                    return;
                }
                continue;
            }
            if (n == 0) { // peer finished sending (or went away)
                if (!c.responded) {
                    close_conn(fd);
                    return;
                }
                break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            if (errno == EINTR)
                continue;
            close_conn(fd);
            return;
        }
        if (!c.responded && c.in.find("\r\n\r\n") != std::string::npos) {
            respond(c);
            // respond()'s flush usually completes the write and
            // close_conn()s, destroying *it->second.  Re-resolve
            // before any further use of the connection.
            it = conns_.find(fd);
            if (it == conns_.end())
                return;
        }
    }
    if (events & EPOLLOUT)
        flush(*it->second);
}

void
AdminEndpoint::respond(AdminConn& c)
{
    c.responded = true;
    // Request line: METHOD SP PATH SP VERSION.
    const size_t eol = c.in.find("\r\n");
    const std::string line = c.in.substr(0, eol);
    const size_t sp1 = line.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    const std::string method =
        sp1 == std::string::npos ? line : line.substr(0, sp1);
    std::string path = sp2 == std::string::npos
                           ? std::string()
                           : line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t query = path.find('?');
    if (query != std::string::npos)
        path.erase(query);

    if (method != "GET") {
        c.out = http_response(405, "Method Not Allowed", "text/plain",
                              "GET only\n");
    } else {
        auto it = routes_.find(path);
        if (it == routes_.end()) {
            c.out = http_response(404, "Not Found", "text/plain",
                                  "no such route\n");
        } else {
            c.out = http_response(200, "OK", it->second.content_type,
                                  it->second.handler());
        }
    }
    flush(c);
}

void
AdminEndpoint::flush(AdminConn& c)
{
    while (!c.out.empty()) {
        ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
        if (n > 0) {
            c.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            loop_->mod(c.fd, EPOLLIN | EPOLLOUT);
            return;
        }
        if (errno == EINTR)
            continue;
        break; // write error: drop
    }
    close_conn(c.fd);
}

void
AdminEndpoint::close_conn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    if (loop_ != nullptr)
        loop_->del(fd);
    ::close(fd);
    it->second->fd = -1;
    conns_.erase(it);
}

// --- blocking client helper --------------------------------------------

bool
admin_http_get(uint16_t port, const std::string& path,
               std::string* body, int timeout_ms)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    timeval tv;
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr)
        != 0) {
        ::close(fd);
        return false;
    }
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    size_t sent = 0;
    while (sent < req.size()) {
        ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    std::string resp;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            resp.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break; // 0 = clean close (Connection: close), <0 = timeout/error
    }
    ::close(fd);
    if (resp.compare(0, 9, "HTTP/1.0 ") != 0
        && resp.compare(0, 9, "HTTP/1.1 ") != 0)
        return false;
    if (resp.compare(9, 3, "200") != 0)
        return false;
    const size_t hdr_end = resp.find("\r\n\r\n");
    if (hdr_end == std::string::npos)
        return false;
    if (body != nullptr)
        *body = resp.substr(hdr_end + 4);
    return true;
}

} // namespace ido::net
