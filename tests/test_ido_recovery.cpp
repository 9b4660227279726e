/**
 * @file
 * iDO recovery tests (paper Sec. III-C): resumption at every possible
 * crash point, lock reclamation, the stolen-lock window, multi-thread
 * recovery with a barrier, and crash-during-recovery idempotence.
 *
 * Methodology: run under ShadowDomain with the crash scheduler armed at
 * every successive opportunity k = 1, 2, 3, ... until the operation
 * completes without crashing.  Each crash discards un-persisted lines
 * (randomized), bumps the lock epoch, re-registers programs, and runs
 * recovery; the resulting state must be exactly pre-op or post-op.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <set>

#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "ds/fase_ids.h"
#include "ds/queue.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "ido/ido_runtime.h"
#include "nvm/shadow_domain.h"
#include "stats/recovery_timeline.h"

namespace ido {
namespace {

using nvm::CrashPolicy;

struct RecoveryWorld
{
    explicit RecoveryWorld(uint64_t seed, bool lazy_lock_records = true)
        : heap({.size = 16u << 20}),
          shadow(heap.base(), heap.size(), seed),
          lazy_lock_records(lazy_lock_records)
    {
        ds::register_all_programs();
        make_runtime();
    }

    void
    make_runtime()
    {
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        cfg.lazy_lock_records = lazy_lock_records;
        runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);
    }

    /** Simulate fail-stop + restart: lose volatile state, recover. */
    void
    crash_and_recover(CrashPolicy policy)
    {
        shadow.crash(policy);
        make_runtime(); // fresh process: new lock table epoch, etc.
        runtime->recover();
        shadow.drain_all(); // recovery's cache state, made visible
    }

    nvm::PersistentHeap heap;
    nvm::ShadowDomain shadow;
    bool lazy_lock_records;
    std::unique_ptr<IdoRuntime> runtime;
};

/** Crash a single-op workload at opportunity k; returns true if the
 *  op crashed (false = ran to completion, sweep is done). */
template <typename Op>
bool
run_with_crash_at(RecoveryWorld& world, int64_t k, Op&& op)
{
    world.runtime->crash_scheduler().arm(k);
    bool crashed = false;
    try {
        op();
    } catch (const rt::SimCrashException&) {
        crashed = true;
    }
    world.runtime->crash_scheduler().disarm();
    return crashed;
}

TEST(IdoRecovery, StackPushAtEveryCrashPoint)
{
    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kRandom,
          CrashPolicy::kPersistAll}) {
        for (int64_t k = 1; k < 200; ++k) {
            RecoveryWorld world(1000 + k);
            auto setup = world.runtime->make_thread();
            ds::PStack stack(ds::PStack::create(*setup));
            stack.push(*setup, 111);
            world.shadow.drain_all();
            setup.reset();

            bool crashed;
            {
                auto th = world.runtime->make_thread();
                crashed = run_with_crash_at(
                    world, k, [&] { stack.push(*th, 222); });
            }
            if (!crashed) {
                // Sweep exhausted: op has < k crash opportunities.
                break;
            }
            world.crash_and_recover(policy);

            // Resumption semantics: a FASE that began logging is run
            // to completion; at worst the op never started.
            const auto snap =
                ds::PStack::snapshot(world.heap, stack.root_off());
            ASSERT_TRUE(ds::PStack::check_invariants(world.heap,
                                                     stack.root_off()));
            if (snap.size() == 2) {
                EXPECT_EQ(snap[0], 222u);
                EXPECT_EQ(snap[1], 111u);
            } else {
                ASSERT_EQ(snap.size(), 1u) << "policy/k=" << k;
                EXPECT_EQ(snap[0], 111u);
            }
        }
    }
}

TEST(IdoRecovery, StackPopAtEveryCrashPoint)
{
    for (int64_t k = 1; k < 200; ++k) {
        RecoveryWorld world(2000 + k);
        auto setup = world.runtime->make_thread();
        ds::PStack stack(ds::PStack::create(*setup));
        stack.push(*setup, 5);
        stack.push(*setup, 6);
        world.shadow.drain_all();
        setup.reset();

        bool crashed;
        {
            auto th = world.runtime->make_thread();
            uint64_t out;
            crashed = run_with_crash_at(world, k,
                                        [&] { stack.pop(*th, &out); });
        }
        if (!crashed)
            break;
        world.crash_and_recover(CrashPolicy::kRandom);

        const auto snap =
            ds::PStack::snapshot(world.heap, stack.root_off());
        ASSERT_TRUE(
            ds::PStack::check_invariants(world.heap, stack.root_off()));
        if (snap.size() == 1) {
            EXPECT_EQ(snap[0], 5u); // pop completed by recovery
        } else {
            ASSERT_EQ(snap.size(), 2u);
            EXPECT_EQ(snap[0], 6u);
        }
    }
}

TEST(IdoRecovery, QueueEnqueueAtEveryCrashPoint)
{
    for (int64_t k = 1; k < 200; ++k) {
        RecoveryWorld world(3000 + k);
        auto setup = world.runtime->make_thread();
        ds::PQueue queue(ds::PQueue::create(*setup));
        queue.enqueue(*setup, 1);
        world.shadow.drain_all();
        setup.reset();

        bool crashed;
        {
            auto th = world.runtime->make_thread();
            crashed = run_with_crash_at(world, k,
                                        [&] { queue.enqueue(*th, 2); });
        }
        if (!crashed)
            break;
        world.crash_and_recover(CrashPolicy::kRandom);

        const auto snap =
            ds::PQueue::snapshot(world.heap, queue.root_off());
        ASSERT_TRUE(
            ds::PQueue::check_invariants(world.heap, queue.root_off()));
        if (snap.size() == 2) {
            EXPECT_EQ(snap[0], 1u);
            EXPECT_EQ(snap[1], 2u);
        } else {
            ASSERT_EQ(snap.size(), 1u);
            EXPECT_EQ(snap[0], 1u);
        }
    }
}

TEST(IdoRecovery, RecoveryIsIdempotentUnderRepeatedCrashes)
{
    // Crash the RECOVERY itself at increasing opportunity counts; each
    // attempt must leave state recoverable until one finally finishes.
    for (int64_t op_k = 5; op_k <= 50; op_k += 9) {
        RecoveryWorld world(4000 + op_k);
        auto setup = world.runtime->make_thread();
        ds::PStack stack(ds::PStack::create(*setup));
        stack.push(*setup, 1);
        world.shadow.drain_all();
        setup.reset();

        bool crashed;
        {
            auto th = world.runtime->make_thread();
            crashed = run_with_crash_at(world, op_k,
                                        [&] { stack.push(*th, 2); });
        }
        if (!crashed)
            continue;

        // Now crash recovery repeatedly before letting it finish.
        for (int64_t rk = 3; rk <= 33; rk += 10) {
            world.shadow.crash(CrashPolicy::kRandom);
            world.make_runtime();
            world.runtime->crash_scheduler().arm(rk);
            try {
                world.runtime->recover();
            } catch (const rt::SimCrashException&) {
            }
            world.runtime->crash_scheduler().disarm();
        }
        world.crash_and_recover(CrashPolicy::kRandom);

        const auto snap =
            ds::PStack::snapshot(world.heap, stack.root_off());
        ASSERT_TRUE(
            ds::PStack::check_invariants(world.heap, stack.root_off()));
        ASSERT_GE(snap.size(), 1u);
        ASSERT_LE(snap.size(), 2u);
        EXPECT_EQ(snap.back(), 1u);
    }
}

TEST(IdoRecovery, MultiThreadCrashRecoversAllFases)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        RecoveryWorld world(5000 + seed);
        ds::WorkloadConfig cfg;
        cfg.ds = ds::DsKind::kHashMap;
        cfg.threads = 4;
        cfg.key_range = 64;
        cfg.map_buckets = 8;
        cfg.ops_per_thread = 1u << 20; // effectively until crash
        cfg.remove_pct = 20;
        cfg.get_pct = 30;
        cfg.seed = seed;
        const uint64_t root = ds::workload_setup(*world.runtime, cfg);
        world.shadow.drain_all();

        world.runtime->crash_scheduler().arm(
            400 + static_cast<int64_t>(seed) * 97);
        const auto result =
            ds::workload_run(*world.runtime, root, cfg);
        EXPECT_TRUE(result.crashed);
        world.crash_and_recover(CrashPolicy::kRandom);

        EXPECT_TRUE(ds::workload_check_invariants(
            world.heap, ds::DsKind::kHashMap, root))
            << "seed " << seed;
        // Post-recovery, all log records must be inactive.
        for (uint64_t off : world.runtime->log_rec_offsets()) {
            EXPECT_EQ(world.heap.resolve<IdoLogRec>(off)->recovery_pc,
                      kInactivePc);
        }
    }
}

TEST(IdoRecovery, CleanRunNeedsNoRecoveryWork)
{
    RecoveryWorld world(7);
    auto th = world.runtime->make_thread();
    ds::PStack stack(ds::PStack::create(*th));
    stack.push(*th, 9);
    th.reset();
    world.crash_and_recover(CrashPolicy::kDropAll);
    // Nothing was mid-FASE; the one durable push must survive...
    const auto snap = ds::PStack::snapshot(world.heap, stack.root_off());
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0], 9u);
}

TEST(IdoRecovery, RecoveredRecordsAreReused)
{
    // Two threads crash mid-push (on two stacks, so neither waits for
    // the other's lock), leaving both records active.  Once recovery
    // has resumed them they are free for reuse: the restarted process's
    // threads take them instead of linking new ones.
    RecoveryWorld world(8);
    auto setup = world.runtime->make_thread();
    ds::PStack s1(ds::PStack::create(*setup));
    ds::PStack s2(ds::PStack::create(*setup));
    world.shadow.drain_all();
    setup.reset();
    auto a = world.runtime->make_thread();
    auto b = world.runtime->make_thread();
    const size_t linked = world.runtime->log_rec_offsets().size();
    ASSERT_EQ(linked, 2u);
    // The tenth tick falls after each push's activation fence.
    for (auto [th, stack] : {std::pair{a.get(), &s1}, {b.get(), &s2}}) {
        ASSERT_TRUE(run_with_crash_at(world, 10, [&] {
            stack->push(*th, 1);
        }));
        EXPECT_NE(static_cast<IdoThread*>(th)->rec()->recovery_pc,
                  kInactivePc);
    }
    world.crash_and_recover(CrashPolicy::kPersistAll);
    a.reset();
    b.reset();
    {
        auto c = world.runtime->make_thread();
        auto d = world.runtime->make_thread();
        s1.push(*c, 2);
        s2.push(*d, 2);
    }
    EXPECT_EQ(world.runtime->log_rec_offsets().size(), linked);
    EXPECT_EQ(ds::PStack::snapshot(world.heap, s1.root_off()).size(), 2u);
    EXPECT_EQ(ds::PStack::snapshot(world.heap, s2.root_off()).size(), 2u);
}

TEST(IdoRecovery, TimelineReportsTheAttachTimeLeakReclaim)
{
    // A free parked in a thread cache is FREEING under the running
    // epoch.  The process dies before phase 2, so the next attach sees
    // a stale-epoch FREEING block and the NvHeap constructor reclaims
    // it.  recover() must report that reclaim -- not a second
    // whole-heap pass that, running after it, always finds nothing.
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::RealDomain dom;
    {
        IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
        heap.mark_running(dom);
        const uint64_t off = rt.allocator().alloc(64, dom);
        ASSERT_NE(off, 0u);
        rt.allocator().free_block(off, dom);
        // Dies here: no cache flush, no clean mark.
    }
    heap.simulate_fresh_open();
    ASSERT_TRUE(heap.recovered_from_crash());
    IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
    rt.recover();
    const std::string j = RecoveryTimeline::instance().to_json();
    EXPECT_NE(j.find("\"leaks_reclaimed\":1"), std::string::npos) << j;
    const size_t phase = j.find("\"name\":\"leak-reclaim\"");
    ASSERT_NE(phase, std::string::npos) << j;
    EXPECT_NE(j.find("\"detail\":1", phase), std::string::npos) << j;
    // ... with the attach pass's split.
    EXPECT_NE(j.find("\"walked_blocks\":", phase), std::string::npos) << j;
    // The heap-gc phase carries the audit's index/mark/census split.
    EXPECT_NE(j.find("\"mark_ns\""), std::string::npos) << j;
    // Wall time covers every phase, the attach-time pass included
    // (it ran in the NvHeap constructor, before recover() began).
    const auto numbers_after = [&j](const std::string& key) {
        std::vector<uint64_t> out;
        for (size_t at = j.find(key); at != std::string::npos;
             at = j.find(key, at + 1))
            out.push_back(std::stoull(j.substr(at + key.size())));
        return out;
    };
    const std::vector<uint64_t> wall = numbers_after("\"wall_ns\":");
    const std::vector<uint64_t> durs = numbers_after("\"dur_ns\":");
    ASSERT_EQ(wall.size(), 1u) << j;
    ASSERT_GE(durs.size(), 3u) << j;
    uint64_t phases_ns = 0;
    for (const uint64_t d : durs)
        phases_ns += d;
    EXPECT_GE(wall[0], phases_ns) << j;

    // The record is handed over once: a second recovery on the same
    // attach reclaims afresh and finds the heap already clean.
    rt.recover();
    EXPECT_NE(RecoveryTimeline::instance().to_json().find(
                  "\"leaks_reclaimed\":0"),
              std::string::npos);
}

// --------------------------------------------------------------------------
// Lazy lock records (ido_runtime.h): locks taken in a FASE's store-free
// prefix are recorded at activation, or never.  Each probe FASE below
// runs under a crash sweep with every ShadowDomain policy, lazy records
// on and off.  Its storing region counts a violation whenever it runs
// -- normally or resumed by recovery -- without exactly the locks it
// expects, and after each recovery every lock must be free: a lock a
// recovery thread kept would deadlock the next FASE that takes it.
// --------------------------------------------------------------------------

constexpr uint32_t kFaseWideLocks = 9101;
constexpr uint32_t kFaseSwapLocks = 9102;
constexpr uint32_t kFaseReadLocked = 9103;
constexpr int kWideLocks = 9; ///< records span both lock_array lines

struct LockProbe
{
    uint64_t holders = 0; ///< kWideLocks holder slots, 8 bytes apart
    uint64_t data = 0;    ///< kWideLocks data words, a line apart
    std::atomic<int> violations{0};

    uint64_t holder(int i) const { return holders + 8 * i; }
    uint64_t word(int i) const { return data + kCacheLineBytes * i; }
};

LockProbe g_probe;

/** Take kWideLocks locks in a store-free region, store under all of
 *  them in a region with no live-ins (the activation's explicit record
 *  fence), release them in a store-free region. */
const rt::FaseProgram&
wide_locks_program()
{
    static const rt::FaseProgram prog = [] {
        auto lock_all = +[](rt::RuntimeThread& th,
                            rt::RegionCtx&) -> uint32_t {
            for (int i = 0; i < kWideLocks; ++i)
                th.fase_lock(g_probe.holder(i));
            return 1;
        };
        auto write = +[](rt::RuntimeThread& th,
                         rt::RegionCtx&) -> uint32_t {
            for (int i = 0; i < kWideLocks; ++i) {
                if (!th.holds_lock(g_probe.holder(i)))
                    g_probe.violations.fetch_add(1);
            }
            for (int i = 0; i < kWideLocks; ++i)
                th.store_u64(g_probe.word(i), 2);
            return 2;
        };
        auto unlock_all = +[](rt::RuntimeThread& th,
                              rt::RegionCtx&) -> uint32_t {
            for (int i = 0; i < kWideLocks; ++i)
                th.fase_unlock(g_probe.holder(i));
            return rt::kRegionEnd;
        };
        rt::FaseProgram p;
        p.fase_id = kFaseWideLocks;
        p.name = "probe.wide_locks";
        p.regions = {{lock_all, "lock_all", 0, 0, 0, 0, 0},
                     {write, "write", 0, 0, 0, 0, 1},
                     {unlock_all, "unlock_all", 0, 0, 0, 0, 0}};
        return p;
    }();
    return prog;
}

/** lock A -> unlock A -> lock B in store-free regions (B reuses A's
 *  slot), then a storing region with a live-in (the activation's
 *  live-in fence orders the record). */
const rt::FaseProgram&
swap_locks_program()
{
    static const rt::FaseProgram prog = [] {
        auto lock_a = +[](rt::RuntimeThread& th,
                          rt::RegionCtx&) -> uint32_t {
            th.fase_lock(g_probe.holder(0));
            return 1;
        };
        auto unlock_a = +[](rt::RuntimeThread& th,
                            rt::RegionCtx&) -> uint32_t {
            th.fase_unlock(g_probe.holder(0));
            return 2;
        };
        auto lock_b = +[](rt::RuntimeThread& th,
                          rt::RegionCtx&) -> uint32_t {
            th.fase_lock(g_probe.holder(1));
            return 3;
        };
        auto write = +[](rt::RuntimeThread& th,
                         rt::RegionCtx& ctx) -> uint32_t {
            if (th.holds_lock(g_probe.holder(0))
                || !th.holds_lock(g_probe.holder(1)))
                g_probe.violations.fetch_add(1);
            th.store_u64(g_probe.word(0), ctx.r[0]);
            return 4;
        };
        auto unlock_b = +[](rt::RuntimeThread& th,
                            rt::RegionCtx&) -> uint32_t {
            th.fase_unlock(g_probe.holder(1));
            return rt::kRegionEnd;
        };
        rt::FaseProgram p;
        p.fase_id = kFaseSwapLocks;
        p.name = "probe.swap_locks";
        p.regions = {{lock_a, "lock_a", 0, 0, 0, 0, 0},
                     {unlock_a, "unlock_a", 0, 0, 0, 0, 0},
                     {lock_b, "lock_b", 0, 0, 0, 0, 0},
                     {write, "write", 1u << 0, 0, 0, 0, 1},
                     {unlock_b, "unlock_b", 0, 0, 0, 0, 0}};
        return p;
    }();
    return prog;
}

/** A store-free FASE holding a lock: lock, read, unlock. */
const rt::FaseProgram&
read_locked_program()
{
    static const rt::FaseProgram prog = [] {
        auto lock = +[](rt::RuntimeThread& th,
                        rt::RegionCtx&) -> uint32_t {
            th.fase_lock(g_probe.holder(0));
            return 1;
        };
        auto read = +[](rt::RuntimeThread& th,
                        rt::RegionCtx& ctx) -> uint32_t {
            if (!th.holds_lock(g_probe.holder(0)))
                g_probe.violations.fetch_add(1);
            ctx.r[1] = th.load_u64(g_probe.word(0));
            return 2;
        };
        auto unlock = +[](rt::RuntimeThread& th,
                          rt::RegionCtx&) -> uint32_t {
            th.fase_unlock(g_probe.holder(0));
            return rt::kRegionEnd;
        };
        rt::FaseProgram p;
        p.fase_id = kFaseReadLocked;
        p.name = "probe.read_locked";
        p.regions = {{lock, "lock", 0, 0, 0, 0, 0},
                     {read, "read", 0, 1u << 1, 0, 0, 0},
                     {unlock, "unlock", 0, 0, 0, 0, 0}};
        return p;
    }();
    return prog;
}

/** What a probe FASE left in its log record at the crash. */
struct CrashedRec
{
    uint64_t pc = kInactivePc;
    uint64_t bitmap = 0;
    std::vector<uint64_t> holders; ///< lock_array entries of set bits
};

/**
 * Sweep one probe FASE: crash it at every opportunity under `policy`,
 * check what the crash left (`check_rec`), recover, and require no
 * violation, every probe lock free, and data words all old (1) or all
 * new (2).  Returns the number of crash points swept.
 */
template <typename CheckRec>
int
sweep_probe(const rt::FaseProgram& prog, CrashPolicy policy, bool lazy,
            CheckRec&& check_rec, uint64_t seed = 6000)
{
    int swept = 0;
    for (int64_t k = 1; k < 400; ++k) {
        RecoveryWorld world(seed + k, lazy);
        rt::FaseRegistry::instance().register_program(&prog);
        auto setup = world.runtime->make_thread();
        g_probe.holders =
            world.runtime->allocator().alloc(8 * kWideLocks, world.shadow);
        g_probe.data = world.runtime->allocator().alloc(
            kCacheLineBytes * kWideLocks, world.shadow);
        for (int i = 0; i < kWideLocks; ++i) {
            setup->store_u64(g_probe.holder(i), 0);
            setup->store_u64(g_probe.word(i), 1);
        }
        world.shadow.drain_all();
        setup.reset();
        g_probe.violations = 0;

        uint64_t rec_off = 0;
        bool crashed;
        {
            auto th = world.runtime->make_thread();
            rec_off = static_cast<IdoThread*>(th.get())->rec_off();
            crashed = run_with_crash_at(world, k, [&] {
                rt::RegionCtx ctx;
                ctx.r[0] = 2;
                th->run_fase(prog, ctx);
            });
        }
        if (!crashed)
            break;
        ++swept;
        world.shadow.crash(policy);
        const auto* rec = world.heap.resolve<IdoLogRec>(rec_off);
        CrashedRec cr;
        cr.pc = rec->recovery_pc;
        cr.bitmap = rec->lock_bitmap;
        for (size_t slot = 0; slot < kMaxHeldLocks; ++slot) {
            if (cr.bitmap & (1ull << slot))
                cr.holders.push_back(rec->lock_array[slot]);
        }
        check_rec(cr, k);

        world.make_runtime();
        world.runtime->recover();
        world.shadow.drain_all();
        EXPECT_EQ(g_probe.violations.load(), 0)
            << prog.name << " k=" << k << " policy "
            << static_cast<int>(policy) << " lazy " << lazy;
        for (int i = 0; i < kWideLocks; ++i) {
            rt::TransientLock& l = world.runtime->locks().lock_for(
                world.heap.resolve<uint64_t>(g_probe.holder(i)));
            EXPECT_TRUE(l.try_lock())
                << prog.name << " lock " << i << " held after recovery, k="
                << k;
            l.unlock();
        }
        const uint64_t first = *world.heap.resolve<uint64_t>(g_probe.word(0));
        EXPECT_TRUE(first == 1 || first == 2) << "k=" << k;
        // The wide probe stores all its words in one region: all or none.
        const int words = &prog == &wide_locks_program() ? kWideLocks : 1;
        for (int i = 1; i < words; ++i) {
            EXPECT_EQ(*world.heap.resolve<uint64_t>(g_probe.word(i)), first)
                << "torn wide-lock FASE, k=" << k;
        }
        // Liveness: the FASE runs again to completion, taking every
        // lock the crashed run held.
        auto th = world.runtime->make_thread();
        rt::RegionCtx ctx;
        ctx.r[0] = 2;
        th->run_fase(prog, ctx);
        EXPECT_EQ(th->locks_held(), 0u);
    }
    return swept;
}

constexpr CrashPolicy kAllPolicies[] = {
    CrashPolicy::kDropAll, CrashPolicy::kRandom, CrashPolicy::kPersistAll};

TEST(IdoLazyLockRecovery, WideLockSetRecordedAllOrNone)
{
    const uint64_t write_pc = pack_recovery_pc(kFaseWideLocks, 1);
    for (const bool lazy : {true, false}) {
        for (const CrashPolicy policy : kAllPolicies) {
            int live_write = 0;
            const int swept = sweep_probe(
                wide_locks_program(), policy, lazy,
                [&](const CrashedRec& cr, int64_t k) {
                    if (cr.pc != write_pc)
                        return;
                    // Resuming the storing region: all nine records
                    // are durable, or recovery would run it unlocked.
                    ++live_write;
                    EXPECT_EQ(std::popcount(cr.bitmap), kWideLocks)
                        << "k=" << k;
                    for (const uint64_t h : cr.holders) {
                        EXPECT_GE(h, g_probe.holder(0)) << "k=" << k;
                        EXPECT_LE(h, g_probe.holder(kWideLocks - 1));
                    }
                });
            EXPECT_GT(swept, 20);
            EXPECT_GT(live_write, 0);
        }
    }
}

TEST(IdoLazyLockRecovery, ReleasedLockIsNeverReacquired)
{
    const uint64_t write_pc = pack_recovery_pc(kFaseSwapLocks, 3);
    for (const bool lazy : {true, false}) {
        for (const CrashPolicy policy : kAllPolicies) {
            int live_write = 0;
            sweep_probe(swap_locks_program(), policy, lazy,
                        [&](const CrashedRec& cr, int64_t k) {
                            if (cr.pc != write_pc)
                                return;
                            ++live_write;
                            ASSERT_EQ(cr.holders.size(), 1u) << "k=" << k;
                            EXPECT_EQ(cr.holders[0], g_probe.holder(1));
                        });
            EXPECT_GT(live_write, 0);
        }
    }
}

TEST(IdoLazyLockRecovery, StoreFreeFaseLeavesNothingToRecover)
{
    for (const bool lazy : {true, false}) {
        for (const CrashPolicy policy : kAllPolicies) {
            const int swept = sweep_probe(
                read_locked_program(), policy, lazy,
                [&](const CrashedRec& cr, int64_t k) {
                    EXPECT_EQ(cr.pc, kInactivePc) << "k=" << k;
                    // Lazily, the lock never reaches the record.
                    if (lazy) {
                        EXPECT_EQ(cr.bitmap, 0u) << "k=" << k;
                    }
                });
            EXPECT_GT(swept, 0);
        }
    }
}

TEST(IdoLazyLockRecovery, CrashBetweenRecordFlushAndActivationFence)
{
    // A crash point where the deferred records are flushed but not yet
    // fenced leaves them in the image under kPersistAll and not under
    // kDropAll, next to an inactive pc; the sweep's checks then show
    // recovery leaves them alone.  Both probes hit the window:
    // the wide one before its explicit fence, the swap one before its
    // live-in fence.
    for (const rt::FaseProgram* prog :
         {&wide_locks_program(), &swap_locks_program()}) {
        std::set<int64_t> stray[2];
        const CrashPolicy policies[2] = {CrashPolicy::kDropAll,
                                         CrashPolicy::kPersistAll};
        for (int i = 0; i < 2; ++i) {
            sweep_probe(*prog, policies[i], true,
                        [&](const CrashedRec& cr, int64_t k) {
                            if (cr.pc == kInactivePc && cr.bitmap != 0)
                                stray[i].insert(k);
                        });
        }
        // kRandom splits the window's lines -- a pc line kept next to a
        // dropped record line is the state a missing record fence
        // would let recovery see -- so sweep it over many seeds.
        for (uint64_t seed = 0; seed < 32; ++seed) {
            sweep_probe(*prog, CrashPolicy::kRandom, true,
                        [](const CrashedRec&, int64_t) {},
                        7000 + 1000 * seed);
        }
        int window = 0;
        for (const int64_t k : stray[1])
            window += stray[0].count(k) == 0;
        EXPECT_GT(window, 0) << prog->name;
    }
}

// --------------------------------------------------------------------------
// Early retirement (ido_runtime.h): once only store-free regions remain,
// the boundary into that tail publishes the inactive pc and the tail's
// releases write no record.  Each sweep below runs every ShadowDomain
// policy and kRandom over many seeds.
// --------------------------------------------------------------------------

constexpr uint32_t kFaseRetireWriter = 9104;
constexpr uint32_t kFaseParkedPeer = 9105;
constexpr uint32_t kFaseUnlockedWrite = 9106;

struct RetireProbe
{
    uint64_t holder = 0; ///< the contended lock L
    uint64_t word = 0;   ///< written under L
    uint64_t peer_word = 0;
    uint64_t free_word = 0; ///< written with no lock held
    std::atomic<bool> park_release{false};
    std::atomic<bool> parked{false};
    /** Set once `watch` holds L inside retire_writer_program. */
    std::atomic<rt::RuntimeThread*> watch{nullptr};
    std::atomic<bool> watch_locked{false};
};

RetireProbe g_retire;

/** lock L -> store `word` = ctx.r[0] under L -> unlock L.  The store
 *  region's boundary retires the log ahead of the unlock region. */
const rt::FaseProgram&
retire_writer_program()
{
    static const rt::FaseProgram prog = [] {
        auto lock = +[](rt::RuntimeThread& th, rt::RegionCtx&) -> uint32_t {
            th.fase_lock(g_retire.holder);
            if (&th == g_retire.watch.load())
                g_retire.watch_locked = true;
            return 1;
        };
        auto write = +[](rt::RuntimeThread& th,
                         rt::RegionCtx& ctx) -> uint32_t {
            th.store_u64(g_retire.word, ctx.r[0]);
            return 2;
        };
        auto unlock = +[](rt::RuntimeThread& th,
                          rt::RegionCtx&) -> uint32_t {
            th.fase_unlock(g_retire.holder);
            return rt::kRegionEnd;
        };
        rt::FaseProgram p;
        p.fase_id = kFaseRetireWriter;
        p.name = "probe.retire_writer";
        p.regions = {{lock, "lock", 0, 0, 0, 0, 0},
                     {write, "write", 1u << 0, 0, 0, 0, 1},
                     {unlock, "unlock", 0, 0, 0, 0, 0}};
        return p;
    }();
    return prog;
}

/** lock L -> store `peer_word` -> park (may store, so the log stays
 *  live) until released, then die like a crashed thread -> unlock. */
const rt::FaseProgram&
parked_peer_program()
{
    static const rt::FaseProgram prog = [] {
        auto lock = +[](rt::RuntimeThread& th, rt::RegionCtx&) -> uint32_t {
            th.fase_lock(g_retire.holder);
            return 1;
        };
        auto write = +[](rt::RuntimeThread& th,
                         rt::RegionCtx&) -> uint32_t {
            th.store_u64(g_retire.peer_word, 2);
            return 2;
        };
        auto park = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
            if (!g_retire.park_release.load()) {
                g_retire.parked = true;
                while (!g_retire.park_release.load())
                    std::this_thread::yield();
                throw rt::SimCrashException{};
            }
            return 3; // resumed by recovery
        };
        auto unlock = +[](rt::RuntimeThread& th,
                          rt::RegionCtx&) -> uint32_t {
            th.fase_unlock(g_retire.holder);
            return rt::kRegionEnd;
        };
        rt::FaseProgram p;
        p.fase_id = kFaseParkedPeer;
        p.name = "probe.parked_peer";
        p.regions = {{lock, "lock", 0, 0, 0, 0, 0},
                     {write, "write", 0, 0, 0, 0, 1},
                     {park, "park", 0, 0, 0, 0, 1},
                     {unlock, "unlock", 0, 0, 0, 0, 0}};
        return p;
    }();
    return prog;
}

/** One storing region, no lock. */
const rt::FaseProgram&
unlocked_write_program()
{
    static const rt::FaseProgram prog = [] {
        auto write = +[](rt::RuntimeThread& th,
                         rt::RegionCtx&) -> uint32_t {
            th.store_u64(g_retire.free_word, 2);
            return rt::kRegionEnd;
        };
        rt::FaseProgram p;
        p.fase_id = kFaseUnlockedWrite;
        p.name = "probe.unlocked_write";
        p.regions = {{write, "write", 0, 0, 0, 0, 1}};
        return p;
    }();
    return prog;
}

/** A world with the retirement probes registered and their words
 *  durable (word = peer_word = free_word = 1, L free). */
void
setup_retire_world(RecoveryWorld& world)
{
    for (const rt::FaseProgram* p :
         {&retire_writer_program(), &parked_peer_program(),
          &unlocked_write_program()})
        rt::FaseRegistry::instance().register_program(p);
    auto setup = world.runtime->make_thread();
    g_retire.holder = world.runtime->allocator().alloc(8, world.shadow);
    const uint64_t words =
        world.runtime->allocator().alloc(3 * kCacheLineBytes, world.shadow);
    g_retire.word = words;
    g_retire.peer_word = words + kCacheLineBytes;
    g_retire.free_word = words + 2 * kCacheLineBytes;
    setup->store_u64(g_retire.holder, 0);
    for (const uint64_t w :
         {g_retire.word, g_retire.peer_word, g_retire.free_word})
        setup->store_u64(w, 1);
    world.shadow.drain_all();
}

bool
retire_lock_free(RecoveryWorld& world)
{
    rt::TransientLock& l = world.runtime->locks().lock_for(
        world.heap.resolve<uint64_t>(g_retire.holder));
    if (!l.try_lock())
        return false;
    l.unlock();
    return true;
}

uint64_t
retire_word(RecoveryWorld& world, uint64_t off)
{
    return *world.heap.resolve<uint64_t>(off);
}

/**
 * Run `body` under each policy (kRandom over 32 seeds), crashing at
 * every tick k and, once the body outlives the fuse, once more at its
 * end.  `body(world, k)` arms the fuse itself and returns whether it
 * ran to completion.
 */
template <typename Body>
void
retire_sweep(uint64_t seed_base, Body&& body)
{
    std::vector<std::pair<CrashPolicy, uint64_t>> runs = {
        {CrashPolicy::kDropAll, 0}, {CrashPolicy::kPersistAll, 0}};
    for (uint64_t s = 0; s < 32; ++s)
        runs.emplace_back(CrashPolicy::kRandom, s);
    for (const auto& [policy, s] : runs) {
        for (int64_t k = 1; k < 400; ++k) {
            if (!body(policy, seed_base + 1000 * s + k, k))
                break;
        }
    }
}

TEST(IdoEarlyRetirement, ReleasedLockWaitsForTheInactivePc)
{
    // T1 retires its log and releases L; T2, on another hardware
    // thread (its fences do not cover T1's lines), then takes L and
    // stores under it.  Once T2 holds L, T1's durable pc must be
    // inactive: otherwise recovery would resume T1's store region
    // over T2's newer value, or reacquire L against T2's record.
    retire_sweep(31000, [](CrashPolicy policy, uint64_t seed, int64_t k) {
        RecoveryWorld world(seed);
        setup_retire_world(world);
        std::atomic<bool> t2_done{false};
        bool t1_done = false;
        uint64_t t1_rec = 0;
        {
            auto t1 = world.runtime->make_thread();
            auto t2 = world.runtime->make_thread();
            t1_rec = static_cast<IdoThread*>(t1.get())->rec_off();
            g_retire.watch = t2.get();
            g_retire.watch_locked = false;
            world.runtime->crash_scheduler().arm(k);
            try {
                rt::RegionCtx ctx;
                ctx.r[0] = 2;
                t1->run_fase(retire_writer_program(), ctx);
                t1_done = true;
            } catch (const rt::SimCrashException&) {
            }
            if (t1_done) {
                std::thread other([&] {
                    try {
                        rt::RegionCtx ctx;
                        ctx.r[0] = 3;
                        t2->run_fase(retire_writer_program(), ctx);
                        t2_done = true;
                    } catch (const rt::SimCrashException&) {
                    }
                });
                other.join();
            }
            world.runtime->crash_scheduler().disarm();
        }
        const bool fuse_left = t2_done.load();
        world.shadow.crash(policy);
        const uint64_t pc =
            world.heap.resolve<IdoLogRec>(t1_rec)->recovery_pc;
        if (g_retire.watch_locked) {
            EXPECT_EQ(pc, kInactivePc)
                << "T1's log is live after T2 took its released lock, k="
                << k << " policy " << static_cast<int>(policy);
            if (pc != kInactivePc)
                return false; // recovery could deadlock
        }
        world.make_runtime();
        world.runtime->recover();
        world.shadow.drain_all();
        EXPECT_TRUE(retire_lock_free(world)) << "k=" << k;
        const uint64_t w = retire_word(world, g_retire.word);
        if (t2_done) {
            EXPECT_EQ(w, 3u) << "T2's acknowledged store lost, k=" << k
                             << " policy " << static_cast<int>(policy);
        } else if (t1_done) {
            EXPECT_TRUE(w == 2 || w == 3) << "k=" << k;
        } else {
            EXPECT_TRUE(w == 1 || w == 2) << "k=" << k;
        }
        return !fuse_left;
    });
}

TEST(IdoEarlyRetirement, StaleLockNotReacquiredAfterNextActivation)
{
    // FASE A retires holding L and releases it, so T's durable record
    // still names L.  A peer then takes L and dies mid-FASE, its record
    // naming L.  T's next FASE B activates without L and crashes:
    // recovery must reacquire exactly B's locks (none) -- reacquiring
    // L for T would deadlock against the peer's recovery thread.
    retire_sweep(47000, [](CrashPolicy policy, uint64_t seed, int64_t k) {
        RecoveryWorld world(seed);
        setup_retire_world(world);
        g_retire.park_release = false;
        g_retire.parked = false;
        auto t = world.runtime->make_thread();
        auto peer = world.runtime->make_thread();
        const uint64_t t_rec = static_cast<IdoThread*>(t.get())->rec_off();
        {
            rt::RegionCtx ctx;
            ctx.r[0] = 2;
            t->run_fase(retire_writer_program(), ctx);
        }
        std::thread peer_thread([&] {
            try {
                rt::RegionCtx ctx;
                peer->run_fase(parked_peer_program(), ctx);
            } catch (const rt::SimCrashException&) {
            }
        });
        while (!g_retire.parked.load())
            std::this_thread::yield();
        bool crashed = false;
        world.runtime->crash_scheduler().arm(k);
        try {
            rt::RegionCtx ctx;
            t->run_fase(unlocked_write_program(), ctx);
        } catch (const rt::SimCrashException&) {
            crashed = true;
        }
        world.runtime->crash_scheduler().disarm();
        g_retire.park_release = true;
        peer_thread.join();
        t.reset();
        peer.reset();
        world.shadow.crash(policy);

        const auto* rec = world.heap.resolve<IdoLogRec>(t_rec);
        if (rec->recovery_pc != kInactivePc) {
            EXPECT_EQ(rec->lock_bitmap, 0u)
                << "B's live record names a lock B never took, k=" << k
                << " policy " << static_cast<int>(policy);
            if (rec->lock_bitmap != 0)
                return false; // recovery would deadlock
        }
        world.make_runtime();
        world.runtime->recover();
        world.shadow.drain_all();
        EXPECT_TRUE(retire_lock_free(world)) << "k=" << k;
        EXPECT_EQ(retire_word(world, g_retire.peer_word), 2u) << "k=" << k;
        const uint64_t fw = retire_word(world, g_retire.free_word);
        EXPECT_TRUE(fw == 1 || fw == 2) << "k=" << k;
        if (!crashed) {
            EXPECT_EQ(fw, 2u) << "k=" << k;
        }
        return crashed;
    });
}

TEST(IdoEarlyRetirement, GroupDeleteHitFreesOnlyAfterThePcFence)
{
    // A group-mode delete hit retires with its inactive pc trailing
    // until the batch-close fence.  Its free must trail too: a FREEING
    // mark that persists next to a dropped pc lets recovery re-run the
    // unlink region and free the item a second time.  Crash at every
    // tick up to and including the batch close.
    apps::MemcachedMini::register_programs();
    retire_sweep(53000, [](CrashPolicy policy, uint64_t seed, int64_t k) {
        RecoveryWorld world(seed);
        uint64_t root = 0;
        {
            auto setup = world.runtime->make_thread();
            root = apps::MemcachedMini::create(*setup, 1, 4);
            apps::MemcachedMini cache(world.heap, root);
            for (uint64_t key = 1; key <= 6; ++key)
                cache.set(*setup, key, key, 100 + key);
        }
        world.shadow.drain_all();
        bool crashed = false;
        {
            auto th = world.runtime->make_thread();
            apps::MemcachedMini cache(world.heap, root);
            world.runtime->crash_scheduler().arm(k);
            try {
                th->begin_persist_group();
                EXPECT_TRUE(cache.del(*th, 3, 3));
                cache.set(*th, 4, 4, 204);
                EXPECT_TRUE(cache.del(*th, 5, 5));
                th->end_persist_group();
            } catch (const rt::SimCrashException&) {
                crashed = true;
            }
            world.runtime->crash_scheduler().disarm();
        }
        if (!crashed)
            return false;
        world.shadow.crash(policy);
        world.make_runtime();
        apps::MemcachedMini::register_programs();
        world.runtime->recover(); // a double free panics here
        world.shadow.drain_all();
        EXPECT_TRUE(apps::MemcachedMini::check_invariants(world.heap, root))
            << "k=" << k << " policy " << static_cast<int>(policy);
        // The heap still hands out and takes back blocks cleanly.
        auto th = world.runtime->make_thread();
        apps::MemcachedMini cache(world.heap, root);
        for (uint64_t key = 1; key <= 8; ++key)
            cache.set(*th, key, key, 300 + key);
        for (uint64_t key = 1; key <= 8; ++key)
            EXPECT_TRUE(cache.del(*th, key, key)) << "k=" << k;
        return true;
    });
}

} // namespace
} // namespace ido
