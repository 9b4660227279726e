#include "net/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "common/panic.h"

namespace ido::net {

void
set_nonblocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    IDO_ASSERT(flags >= 0, "fcntl(F_GETFL) failed");
    int rc = ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    IDO_ASSERT(rc == 0, "fcntl(F_SETFL) failed");
}

int
listen_loopback(uint16_t port, int backlog, const char* what,
                uint16_t* bound)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    IDO_ASSERT(fd >= 0, "%s: socket() failed", what);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    IDO_ASSERT(rc == 0, "%s: bind() failed (port %u in use?)", what,
               static_cast<unsigned>(port));
    rc = ::listen(fd, backlog);
    IDO_ASSERT(rc == 0, "%s: listen() failed", what);
    socklen_t alen = sizeof addr;
    rc = ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen);
    IDO_ASSERT(rc == 0, "%s: getsockname() failed", what);
    *bound = ntohs(addr.sin_port);
    set_nonblocking(fd);
    return fd;
}

EventLoop::EventLoop()
{
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    IDO_ASSERT(epfd_ >= 0, "epoll_create1 failed");
    wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    IDO_ASSERT(wakefd_ >= 0, "eventfd failed");
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = wakefd_;
    int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev);
    IDO_ASSERT(rc == 0, "epoll_ctl(wakefd) failed");
}

EventLoop::~EventLoop()
{
    if (wakefd_ >= 0)
        ::close(wakefd_);
    if (epfd_ >= 0)
        ::close(epfd_);
}

void
EventLoop::add(int fd, uint32_t events, Callback cb)
{
    struct epoll_event ev = {};
    ev.events = events;
    ev.data.fd = fd;
    int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    IDO_ASSERT(rc == 0, "epoll_ctl(ADD) failed");
    handlers_[fd] = std::move(cb);
}

void
EventLoop::mod(int fd, uint32_t events)
{
    struct epoll_event ev = {};
    ev.events = events;
    ev.data.fd = fd;
    int rc = ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
    IDO_ASSERT(rc == 0, "epoll_ctl(MOD) failed");
}

void
EventLoop::del(int fd)
{
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    handlers_.erase(fd);
}

void
EventLoop::set_wake_handler(std::function<void()> fn)
{
    wake_handler_ = std::move(fn);
}

void
EventLoop::set_turn_end(std::function<void()> fn)
{
    turn_end_ = std::move(fn);
}

void
EventLoop::wake()
{
    // write(2) on an eventfd is async-signal-safe, so stop() can be
    // driven from a SIGTERM handler in ido_serve.
    const uint64_t one = 1;
    ssize_t n = ::write(wakefd_, &one, sizeof one);
    (void)n; // EAGAIN means a wake is already pending: coalesced.
}

void
EventLoop::run()
{
    running_.store(true, std::memory_order_relaxed);
    constexpr int kMaxEvents = 64;
    struct epoll_event evs[kMaxEvents];
    while (running_.load(std::memory_order_relaxed)) {
        int n = ::epoll_wait(epfd_, evs, kMaxEvents, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n && running_.load(std::memory_order_relaxed); ++i) {
            const int fd = evs[i].data.fd;
            if (fd == wakefd_) {
                uint64_t drained;
                while (::read(wakefd_, &drained, sizeof drained) > 0) {
                }
                if (wake_handler_)
                    wake_handler_();
                continue;
            }
            // A previous callback this round may have del()ed this fd;
            // copy the callback so it can safely del() itself too.
            auto it = handlers_.find(fd);
            if (it == handlers_.end())
                continue;
            Callback cb = it->second;
            cb(evs[i].events);
        }
        if (turn_end_)
            turn_end_();
    }
}

void
EventLoop::stop()
{
    running_.store(false, std::memory_order_relaxed);
    wake();
}

} // namespace ido::net
