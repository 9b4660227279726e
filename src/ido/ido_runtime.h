/**
 * @file
 * The iDO failure-atomicity runtime (paper Sec. III-IV).
 *
 * Normal-execution protocol, per idempotent region boundary r -> s:
 *   1. write the output registers of r (Def_r ∩ LiveOut_r, Eq. 1) into
 *      their fixed intRF/floatRF slots, initiate write-back of the
 *      touched register-file lines (persist coalescing: up to eight
 *      registers per clflush) and of every heap line stored in r
 *      (pointer-accessed writes are tracked at run time), then fence;
 *   2. update recovery_pc to point at s, flush, fence;
 *   3. execute s.
 * At most two persist fences per region, independent of the number of
 * stores -- this is the paper's entire performance argument.  The log
 * is live only between a FASE's first and last potentially-storing
 * region (RuntimeConfig::lazy_lock_records): activation is deferred
 * to the first may_store region, and once every region still to run
 * is store-free the boundary into that tail *retires* the log -- it
 * fences r's heap lines, publishes the inactive recovery_pc with one
 * fence, and runs the tail with no boundary persists at all.  A crash
 * in a store-free tail loses nothing recovery could tell apart from
 * the FASE having completed, so the tail needs no resumption point.
 *
 * Lock protocol (indirect locking, Sec. III-B): a lock_array entry
 * plus its bitmap bit name each held lock.  While the FASE's log is
 * live, every acquire and release writes, flushes and fences its
 * record.  Outside that window the record is not maintained:
 *  - a lock taken before activation (or in a retired tail) costs no
 *    persist at all; the first may_store region's activation writes
 *    every such record and orders them ahead of the live recovery_pc
 *    with the activation's own fence;
 *  - a release in a retired tail writes nothing: it drops the lock's
 *    bit from the volatile mirror, notes the slot as stale and
 *    releases the transient lock.
 * The invariant: while recovery_pc is active, the durable record names
 * exactly the held locks; while it is inactive, the lock words are
 * ignored by recovery.  Activation restores exactness -- it rewrites
 * the bitmap and zeroes every stale slot it does not reuse under the
 * fence it already pays -- so a later crash never reacquires a lock
 * some earlier FASE released.  A store-free FASE pays no flush and no
 * fence for its locks; a crash outside the live window loses nothing
 * recovery could tell apart, and transient locks die with the process.
 *
 * Log records are reused: a thread's record returns to its runtime's
 * volatile pool when the thread exits between FASEs, every record
 * recover() resumed joins it once recovery finishes, and construction
 * pools every record whose recovery_pc is already inactive (on a clean
 * attach, all of them).  The list thus
 * holds one record per peak concurrent thread, not one per thread ever
 * created.  A reused record starts with every slot stale.
 */
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "ido/ido_log.h"
#include "runtime/runtime.h"

namespace ido {

/**
 * Volatile pool of log records no live thread owns and whose
 * recovery_pc is inactive.  Shared with the threads, so a thread that
 * outlives its runtime can still hand its record back harmlessly.
 */
struct LogRecPool
{
    std::mutex mu;
    std::vector<uint64_t> recs;
};

class IdoRuntime final : public rt::Runtime
{
  public:
    IdoRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
               const rt::RuntimeConfig& cfg);

    const char* name() const override { return "ido"; }
    rt::RuntimeTraits traits() const override;

    std::unique_ptr<rt::RuntimeThread> make_thread() override;
    void recover() override;

    /** Allocate and durably link a fresh per-thread log record. */
    uint64_t allocate_log_rec();

    /** Offsets of all linked log records (head first). */
    std::vector<uint64_t> log_rec_offsets();

    /** Take a pooled record for a new thread, or 0 when none is. */
    uint64_t take_pooled_rec();

    const std::shared_ptr<LogRecPool>& rec_pool() const { return pool_; }

  private:
    std::atomic<uint64_t> next_thread_tag_{1};
    std::shared_ptr<LogRecPool> pool_ = std::make_shared<LogRecPool>();
};

class IdoThread final : public rt::RuntimeThread
{
  public:
    /**
     * Normal-execution thread: reuses a pooled record if there is one,
     * else links a fresh record.
     */
    explicit IdoThread(IdoRuntime& rt);

    /** Recovery thread adopting the record of a crashed thread. */
    IdoThread(IdoRuntime& rt, uint64_t existing_rec_off);

    /** Returns the record to the pool if it is durably inactive. */
    ~IdoThread() override;

    IdoLogRec* rec() { return rec_; }
    uint64_t rec_off() const { return rec_off_; }

    /** Volatile copy of the recorded lock bits (the held locks the
     *  durable record names while the log is live). */
    uint64_t lock_mirror() const { return lock_bitmap_mirror_; }

    /**
     * Recovery step 3 (Sec. III-C): reacquire every lock named in the
     * adopted record's lock_array.
     */
    /** @return number of crash-held locks reclaimed (recovery stats). */
    uint64_t reacquire_crashed_locks();

    /** Recovery step 4: rebuild the register file from the log. */
    void restore_ctx(rt::RegionCtx& ctx) const;

    /**
     * Recovery step 5 epilogue.  A group-mode crash can leave a stale
     * ownership record: the unfenced slot-clear of an already-released
     * lock, resolved in favour of the older value.  Recovery then
     * reacquires a lock the resumed FASE never releases (its unlock
     * region names a different -- or no -- holder).  Releasing the
     * leftovers here restores the "no locks held after recovery"
     * post-condition; under the stock protocol this is a no-op.
     */
    void release_leftover_locks();

    /**
     * Group-persist mode (ido-serve group commit).  Between begin and
     * end, the two kinds of fences whose only role is to *publish
     * markers* are deferred:
     *
     *  - boundary fence 2 (recovery_pc advance) keeps its store+flush
     *    but fences lazily WHEN every region still to run in the FASE
     *    is store-free (the trailing unlock region, and the FASE-end
     *    inactive marker).  The durable pc then only LAGS program
     *    order across fenced, idempotent work, so every crash state is
     *    one the stock protocol already reaches between a boundary's
     *    fence 1 and fence 2.  The restriction is load-bearing: cache
     *    lines dirtied by a store persist (or not) independently at a
     *    crash, regardless of fences, so deferring the pc fence across
     *    a may_store region lets that region's lines persist while the
     *    pc drops -- recovery then resumes an earlier region against
     *    newer state (a cross-region WAR, e.g. a build region
     *    reloading a list head its link region already moved), or, for
     *    the activation pc, never resumes at all.  The crash-point
     *    sweep in test_group_commit.cpp exercises exactly this.
     *
     *  - lock-operation fences (Sec. III-B's one-fence-per-lock-op)
     *    are deferred entirely.  Sound only under the group contract
     *    (runtime.h): every lock taken inside a group is thread-
     *    private, so a crash-torn ownership record at worst skips a
     *    reacquisition nobody contends, or reacquires a lock already
     *    released (both handled by the existing torn-record and
     *    idempotent-unlock paths).
     *
     * Boundary fence 1 (persist_outputs) is NEVER deferred: region
     * outputs must not be outrun by the pc line.  end_persist_group
     * issues one closing fence covering every deferred marker, so a
     * reply released after it implies full durability of the batch.
     *
     * Deferred frees of a FASE that ends with its inactive pc still
     * unfenced are parked until that fence: a free's FREEING mark may
     * persist on its own at a crash, and next to a dropped pc recovery
     * would re-run the freeing region and free the block twice.
     */
    void begin_persist_group() override;
    void end_persist_group() override;

  protected:
    void on_fase_begin(const rt::FaseProgram& prog,
                       rt::RegionCtx& ctx) override;
    void on_region_begin(const rt::FaseProgram& prog, uint32_t idx,
                         rt::RegionCtx& ctx) override;
    void on_region_boundary(const rt::FaseProgram& prog,
                            uint32_t finished_idx, rt::RegionCtx& ctx,
                            uint32_t next_idx) override;
    void on_fase_end(const rt::FaseProgram& prog,
                     rt::RegionCtx& ctx) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_store_covered(uint64_t off, const void* src,
                          size_t n) override;
    void do_lock(uint64_t holder_off, rt::TransientLock& l) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    /** Step 1 of the boundary protocol: persist OutputSet_r. */
    void persist_outputs(const rt::RegionMeta& meta,
                         const rt::RegionCtx& ctx);

    /**
     * Step 2: durably advance recovery_pc.  The fence is deferred
     * (group mode) only when `tail_read_only`: the caller asserts that
     * no may_store region runs before the next fence, the condition
     * that keeps a lagging durable pc sound (class comment above).
     */
    void advance_recovery_pc(uint64_t pc, bool tail_read_only);

    struct PendingRange
    {
        uint64_t off;
        uint32_t len;
    };

    /** Fence a deferred recovery_pc flush (group mode), if any. */
    void fence_pending_pc();

    /** Free the blocks parked behind a now-fenced inactive pc. */
    void drain_parked_frees();

    /**
     * Activation half of lazy lock records: write every unrecorded
     * held lock into lock_array, zero every stale slot, rewrite the
     * bitmap and flush their lines.  The caller fences.
     */
    void record_deferred_locks();

    IdoLogRec* rec_;
    uint64_t rec_off_;
    /** Pool the record returns to on exit (null: recovery thread). */
    std::shared_ptr<LogRecPool> pool_;
    uint64_t lock_bitmap_mirror_ = 0; ///< volatile copy of rec_->lock_bitmap
    /** Slots of locks taken before activation: held, not yet recorded. */
    uint64_t unrecorded_ = 0;
    /** Slots the durable record may still name though no lock holds
     *  them (released in a retired tail, or a reused record). */
    uint64_t stale_ = 0;
    bool activated_ = false; ///< lazy: logging live for this FASE?
    bool retired_ = false;   ///< lazy: log retired, store-free tail runs
    bool group_mode_ = false;      ///< inside begin/end_persist_group?
    bool pc_flush_pending_ = false;   ///< recovery_pc flushed, unfenced
    bool marker_flush_pending_ = false; ///< lock records flushed, unfenced
    std::vector<PendingRange> pending_;
    /** Frees waiting for the fence of a deferred inactive pc. */
    std::vector<uint64_t> parked_frees_;
    /** Scratch for boundary-time pending-line dedup (flush_elision). */
    std::vector<uintptr_t> line_scratch_;
};

} // namespace ido
