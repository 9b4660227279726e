/**
 * @file
 * A minimal single-threaded epoll event loop for ido-serve.
 *
 * One loop thread owns every socket: accepts, reads, protocol parsing
 * and reply writes all happen here, while FASE execution happens on
 * the shard worker threads (shard.h).  Workers hand completed replies
 * back through a queue and call wake(), which the loop observes via an
 * eventfd registered like any other fd.
 *
 * Deliberately not a general-purpose reactor: level-triggered epoll,
 * no timers, no cross-thread fd registration.  Callbacks may add,
 * modify or remove fds (including their own) from inside the callback;
 * removal is handled by looking handlers up fresh per event and
 * copying the callback before invoking it.  One end-of-turn hook runs
 * after every epoll_wait round has been dispatched; the front-end
 * writes each connection's coalesced replies there.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>

namespace ido::net {

/** Put fd in O_NONBLOCK mode; panics if fcntl fails. */
void set_nonblocking(int fd);

/**
 * Nonblocking TCP listener on 127.0.0.1:`port` (0 = kernel-assigned)
 * with SO_REUSEADDR; panics naming `what` if the port is taken.
 * @return the listening fd; *bound receives the port actually bound.
 */
int listen_loopback(uint16_t port, int backlog, const char* what,
                    uint16_t* bound);

class EventLoop
{
  public:
    /** Called with the ready EPOLLIN/EPOLLOUT/EPOLLERR/... mask. */
    using Callback = std::function<void(uint32_t events)>;

    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /** Register fd for `events` (EPOLLIN etc.).  Loop thread only. */
    void add(int fd, uint32_t events, Callback cb);

    /** Change the event mask of a registered fd. */
    void mod(int fd, uint32_t events);

    /** Deregister fd.  Does not close it. */
    void del(int fd);

    /**
     * Invoked on the loop thread after a wake() from any thread.
     * Coalesced: many wake() calls may yield one invocation.
     */
    void set_wake_handler(std::function<void()> fn);

    /**
     * Invoked on the loop thread once per turn, after every event of
     * an epoll_wait round was dispatched.  One hook per loop; nullptr
     * clears it.
     */
    void set_turn_end(std::function<void()> fn);

    /** Nudge the loop from another thread (or a signal handler). */
    void wake();

    /** Run until stop(); dispatches events and wake notifications. */
    void run();

    /** Ask run() to return.  Callable from any thread / signal. */
    void stop();

  private:
    int epfd_ = -1;
    int wakefd_ = -1;
    std::atomic<bool> running_{false};
    std::function<void()> wake_handler_;
    std::function<void()> turn_end_;
    std::unordered_map<int, Callback> handlers_;
};

} // namespace ido::net
