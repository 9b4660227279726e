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

#include <string>
#include <thread>
#include <vector>

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
    explicit RecoveryWorld(uint64_t seed)
        : heap({.size = 16u << 20}),
          shadow(heap.base(), heap.size(), seed)
    {
        ds::register_all_programs();
        make_runtime();
    }

    void
    make_runtime()
    {
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
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

} // namespace
} // namespace ido
