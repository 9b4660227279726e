#include "nvm/nv_heap.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/panic.h"
#include "nvm/persist_domain.h"
#include "stats/metrics.h"
#include "stats/stat_plane.h"
#include "trace/trace.h"

namespace ido::nvm {

namespace {

constexpr size_t kClassSizes[NvHeap::kNumClasses] = {
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096,
};

std::atomic<uint64_t> g_next_heap_id{1};

const char*
state_name(uint64_t st)
{
    switch (st) {
      case NvHeap::kBlockLive:
        return "LIVE";
      case NvHeap::kBlockFreeing:
        return "FREEING";
      case NvHeap::kBlockFree:
        return "FREE";
      case NvHeap::kBlockMoved:
        return "MOVED";
    }
    return "INVALID";
}

} // namespace

namespace {

/** class_for_size as a 16-byte-granule lookup table (built once). */
struct ClassTable
{
    uint8_t by_granule[4096 / 16 + 1];

    ClassTable()
    {
        for (size_t g = 0; g <= 4096 / 16; ++g) {
            const size_t size = g * 16;
            uint8_t c = NvHeap::kNumClasses;
            for (size_t k = 0; k < NvHeap::kNumClasses; ++k) {
                if (size <= kClassSizes[k]) {
                    c = static_cast<uint8_t>(k);
                    break;
                }
            }
            by_granule[g] = c;
        }
    }
};

const ClassTable g_class_table;

} // namespace

size_t
NvHeap::class_for_size(size_t size)
{
    if (size > 4096)
        return kNumClasses; // oversize: exact-size global carve
    return g_class_table.by_granule[(size + 15) >> 4];
}

size_t
NvHeap::class_payload(size_t cls)
{
    IDO_ASSERT(cls < kNumClasses);
    return kClassSizes[cls];
}

NvHeap::NvHeap(PersistentHeap& heap, PersistDomain& dom,
               std::function<void()> crash_hook)
    : heap_(heap),
      id_(g_next_heap_id.fetch_add(1, std::memory_order_relaxed)),
      crash_hook_(std::move(crash_hook))
{
    auto& reg = MetricsRegistry::instance();
    m_alloc_ = reg.counter("nvheap.alloc");
    m_free_ = reg.counter("nvheap.free");
    m_cache_hit_ = reg.counter("nvheap.cache_hit");
    m_refill_ = reg.counter("nvheap.refill");
    m_spill_ = reg.counter("nvheap.spill");
    m_shard_pop_ = reg.counter("nvheap.shard_pop");
    m_leak_reclaim_ = reg.counter("nvheap.leak_reclaim");
    m_oversize_ = reg.counter("nvheap.oversize");
    m_chunk_reuse_ = reg.counter("nvheap.chunk_reuse");

    state_off_ = heap_.root(RootSlot::kAllocator);
    if (state_off_ == 0) {
        // Fresh heap: carve the metadata out of the arena start.
        const uint64_t off = heap_.arena_begin();
        auto* st = heap_.resolve<HeapState>(off);
        HeapState init{};
        init.magic = kStateMagic;
        init.bump = (off + sizeof(HeapState) + 63) & ~uint64_t{63};
        init.end = heap_.size();
        init.epoch = 1;
        dom.store(st, &init, sizeof(init));
        dom.flush(st, sizeof(init));
        dom.fence();
        heap_.set_root(RootSlot::kAllocator, off, dom);
        state_off_ = off;
        data_begin_ = (state_off_ + sizeof(HeapState) + 63) & ~uint64_t{63};
    } else {
        data_begin_ = (state_off_ + sizeof(HeapState) + 63) & ~uint64_t{63};
        HeapState* st = heap_.resolve<HeapState>(state_off_);
        IDO_ASSERT(dom.load_val(&st->magic) == kStateMagic,
                   "NvHeap: allocator root was written by an "
                   "incompatible (v1) allocator");
        // New attach epoch: everything the previous epoch held in
        // transient caches becomes recognizably stale.
        dom.store_val(&st->epoch, dom.load_val(&st->epoch) + 1);
        dom.flush(&st->epoch, sizeof(uint64_t));
        dom.fence();
        // One pass relinks what dead epochs stranded and seeds the
        // per-class occupancy counters from the image, so the live/free
        // gauges and the fragmentation ratio count inherited blocks,
        // not just this run's churn.  Caches are never spilled before a
        // clean shutdown, so a clean attach has stale FREEING strays
        // too -- but no FREE block off every list, so no list chase.
        const bool crashed = heap_.recovered_from_crash();
        AttachReclaim r = reclaim_pass(dom, /*chase=*/crashed,
                                       /*seed=*/true,
                                       /*keep_index=*/crashed);
        if (crashed)
            attach_reclaim_ = std::move(r);
    }

    // ido-stat occupancy gauges.  The bump/end reads take the refill
    // mutex so a scrape-thread evaluation never races a refill's plain
    // stores.  Estimates derive from the global nvheap.* counters:
    // live = allocs - frees; pooled = frees - reuses (cache hits +
    // shard pops).  If a later NvHeap re-registers these names its
    // registration wins, and whichever instance dies first removes the
    // name -- a gauge never outlives the state it reads.
    reg.register_gauge("nvheap.arena_remaining_bytes", [this] {
        std::lock_guard<std::mutex> g(refill_mutex_);
        return arena_remaining();
    });
    reg.register_gauge("nvheap.arena_used_bytes", [this] {
        std::lock_guard<std::mutex> g(refill_mutex_);
        const HeapState* st = state();
        return st->bump - data_begin_;
    });
    reg.register_gauge("nvheap.live_blocks_est", [this] {
        const uint64_t a = m_alloc_->load(std::memory_order_relaxed);
        const uint64_t f = m_free_->load(std::memory_order_relaxed);
        return a > f ? a - f : 0;
    });
    reg.register_gauge("nvheap.free_pool_blocks_est", [this] {
        const uint64_t f = m_free_->load(std::memory_order_relaxed);
        const uint64_t reused =
            m_cache_hit_->load(std::memory_order_relaxed)
            + m_shard_pop_->load(std::memory_order_relaxed);
        return f > reused ? f - reused : 0;
    });
    // Per-size-class live/free split, from the same cheap counters the
    // alloc/free paths already touch (no heap walk on scrape).  "free"
    // counts blocks of the class sitting in a transient cache or on a
    // persistent free list, i.e. reusable without growing the arena.
    for (size_t c = 0; c < kNumClasses; ++c) {
        const std::string base =
            "nvheap.class." + std::to_string(kClassSizes[c]);
        reg.register_gauge(base + ".live", [this, c] {
            const uint64_t a = cls_alloc_[c].load(std::memory_order_relaxed);
            const uint64_t f = cls_free_[c].load(std::memory_order_relaxed);
            return a > f ? a - f : 0;
        });
        reg.register_gauge(base + ".free", [this, c] {
            const uint64_t a = cls_alloc_[c].load(std::memory_order_relaxed);
            const uint64_t f = cls_free_[c].load(std::memory_order_relaxed);
            return f > a ? 0 : f; // net frees currently reusable
        });
    }
    // Fragmentation ratio in parts-per-million: the share of the
    // consumed arena (data_begin..bump) not covered by live payloads
    // and their headers.  1e6 means an arena of pure dead space; 0
    // means perfectly packed.  Reported in ppm because gauges are
    // integral; ido_top renders it as a percentage.
    reg.register_gauge("heap.fragmentation", [this] {
        uint64_t used;
        {
            std::lock_guard<std::mutex> g(refill_mutex_);
            used = state()->bump - data_begin_;
        }
        if (used == 0)
            return uint64_t{0};
        const uint64_t live = live_bytes_estimate();
        if (live >= used)
            return uint64_t{0};
        return (used - live) * 1000000 / used;
    });
}

NvHeap::~NvHeap()
{
    auto& reg = MetricsRegistry::instance();
    reg.unregister_gauge("nvheap.arena_remaining_bytes");
    reg.unregister_gauge("nvheap.arena_used_bytes");
    reg.unregister_gauge("nvheap.live_blocks_est");
    reg.unregister_gauge("nvheap.free_pool_blocks_est");
    for (size_t c = 0; c < kNumClasses; ++c) {
        const std::string base =
            "nvheap.class." + std::to_string(kClassSizes[c]);
        reg.unregister_gauge(base + ".live");
        reg.unregister_gauge(base + ".free");
    }
    reg.unregister_gauge("heap.fragmentation");
}

uint64_t
NvHeap::live_bytes_estimate() const
{
    uint64_t live = 0;
    for (size_t c = 0; c < kNumClasses; ++c) {
        const uint64_t a = cls_alloc_[c].load(std::memory_order_relaxed);
        const uint64_t f = cls_free_[c].load(std::memory_order_relaxed);
        if (a > f)
            live += (a - f) * (kClassSizes[c] + sizeof(BlockHeader));
    }
    const uint64_t ob = oversize_bytes_.load(std::memory_order_relaxed);
    const uint64_t ofb =
        oversize_freed_bytes_.load(std::memory_order_relaxed);
    if (ob > ofb)
        live += ob - ofb;
    return live;
}

NvHeap::HeapState*
NvHeap::state() const
{
    return heap_.resolve<HeapState>(state_off_);
}

uint64_t
NvHeap::epoch() const
{
    return state()->epoch;
}

std::vector<uint64_t>
NvHeap::free_list(size_t shard, size_t cls) const
{
    IDO_ASSERT(shard < kNumShards && cls < kNumClasses);
    std::vector<uint64_t> out;
    for (uint64_t p = state()->shards[shard].heads[cls]; p != 0;
         p = *heap_.resolve<uint64_t>(p)) {
        out.push_back(p);
        IDO_ASSERT(out.size() <= heap_.size() / 16, "nvheap: free-list cycle");
    }
    return out;
}

void
NvHeap::set_crash_hook(std::function<void()> hook_fn)
{
    crash_hook_ = std::move(hook_fn);
}

NvHeap::ThreadCache&
NvHeap::tcache()
{
    // Keyed by process-unique heap id, so a thread working against two
    // heaps (or a re-created heap over the same buffer) never mixes
    // caches.  Ids are never reused; entries for dead heaps are inert.
    // The last-used pair is memoized so the steady state (one heap per
    // thread) costs a single compare instead of a hash lookup.
    thread_local uint64_t tls_last_id = 0;
    thread_local ThreadCache* tls_last_tc = nullptr;
    if (tls_last_id == id_)
        return *tls_last_tc;
    thread_local std::unordered_map<uint64_t, ThreadCache*> tls_map;
    auto it = tls_map.find(id_);
    if (it != tls_map.end()) {
        tls_last_id = id_;
        tls_last_tc = it->second;
        return *it->second;
    }
    auto tc = std::make_unique<ThreadCache>();
    ThreadCache* raw = tc.get();
    {
        // Ordered under record/replay: owner tags are handed out here,
        // and replayed block headers must carry the recorded tags.
        fuzz::rr::OrderedGuard g(tc_mutex_,
                                 fuzz::obj_key(fuzz::ObjKind::kHeapTc));
        tc->owner_tag = next_owner_tag_++;
        tcs_.push_back(std::move(tc));
        // This thread is about to allocate or free: the attach index
        // stops describing the heap.
        attach_reclaim_.index.reset();
    }
    tls_map.emplace(id_, raw);
    tls_last_id = id_;
    tls_last_tc = raw;
    return *raw;
}

size_t
NvHeap::home_shard(const ThreadCache& tc) const
{
    return tc.owner_tag % kNumShards;
}

void
NvHeap::set_meta(uint64_t payload_off, uint64_t meta, PersistDomain& dom,
                 bool fence)
{
    auto* hdr = heap_.resolve<BlockHeader>(payload_off - sizeof(BlockHeader));
    dom.store_val(&hdr->meta, meta);
    dom.flush(&hdr->meta, sizeof(uint64_t));
    if (fence)
        dom.fence();
}

uint64_t
NvHeap::carve_from_chunk(ThreadCache& tc, size_t payload, uint16_t owner,
                         PersistDomain& dom, TypeId type, bool aligned)
{
    const uint64_t need = sizeof(BlockHeader) + payload;
    if (tc.chunk_cursor == 0 || tc.chunk_cursor + need > tc.chunk_end)
        return 0;
    const uint64_t block_off = tc.chunk_cursor;
    BlockHeader hdr{payload,
                    pack_meta(kBlockLive, owner, epoch(), type, aligned)};
    auto* hp = heap_.resolve<BlockHeader>(block_off);
    hook();
    dom.store(hp, &hdr, sizeof(hdr));
    dom.flush(hp, sizeof(hdr));
    dom.fence();
    // The cursor is transient: a crash here leaks a LIVE-marked block
    // (exactly like v1's pre-bump-advance window), never corrupts.
    tc.chunk_cursor = block_off + need;
    return block_off + sizeof(BlockHeader);
}

bool
NvHeap::refill_chunk(ThreadCache& tc, PersistDomain& dom)
{
    fuzz::rr::OrderedGuard g(refill_mutex_,
                             fuzz::obj_key(fuzz::ObjKind::kHeapRefill));
    HeapState* st = state();
    // Retired chunks (emptied by compaction) are reused before the
    // global bump ever grows -- this is what bounds the heap file's
    // high-water mark under steady churn.  The unlink is durable
    // before the chunk is handed out; a crash after the unlink leaks
    // the chunk until the next GC re-retires it (it walks as empty and
    // is on no list), the usual leak-not-corruption outcome.
    const uint64_t freec = dom.load_val(&st->chunk_free);
    if (freec != 0) {
        const uint64_t next =
            dom.load_val(heap_.resolve<uint64_t>(freec + sizeof(BlockHeader)));
        hook();
        dom.store_val(&st->chunk_free, next);
        dom.flush(&st->chunk_free, sizeof(uint64_t));
        dom.fence();
        tc.chunk_cursor = freec + sizeof(BlockHeader);
        tc.chunk_end = freec + kChunkBytes;
        m_chunk_reuse_->fetch_add(1, std::memory_order_relaxed);
        trace::emit(trace::EventKind::kArenaRefill, freec, kChunkBytes);
        return true;
    }
    const uint64_t bump = dom.load_val(&st->bump);
    if (bump + kChunkBytes > dom.load_val(&st->end))
        return false;
    // Stamp the chunk header durably, then advance the global bump.
    // Crash in between wastes the chunk (walkers stop at the bump), a
    // leak-not-corruption outcome.
    auto* ch = heap_.resolve<BlockHeader>(bump);
    BlockHeader hdr{kChunkMagic, kChunkBytes};
    hook();
    dom.store(ch, &hdr, sizeof(hdr));
    dom.flush(ch, sizeof(hdr));
    dom.fence();
    hook();
    dom.store_val(&st->bump, bump + kChunkBytes);
    dom.flush(&st->bump, sizeof(uint64_t));
    dom.fence();
    tc.chunk_cursor = bump + sizeof(BlockHeader);
    tc.chunk_end = bump + kChunkBytes;
    m_refill_->fetch_add(1, std::memory_order_relaxed);
    trace::emit(trace::EventKind::kArenaRefill, bump, kChunkBytes);
    return true;
}

uint64_t
NvHeap::carve_global(size_t payload, uint16_t owner, PersistDomain& dom,
                     TypeId type, bool aligned)
{
    fuzz::rr::OrderedGuard g(refill_mutex_,
                             fuzz::obj_key(fuzz::ObjKind::kHeapRefill));
    HeapState* st = state();
    const uint64_t need = sizeof(BlockHeader) + payload;
    const uint64_t bump = dom.load_val(&st->bump);
    if (bump + need > dom.load_val(&st->end))
        return 0;
    auto* hp = heap_.resolve<BlockHeader>(bump);
    BlockHeader hdr{payload,
                    pack_meta(kBlockLive, owner, epoch(), type, aligned)};
    hook();
    dom.store(hp, &hdr, sizeof(hdr));
    dom.flush(hp, sizeof(hdr));
    dom.fence();
    hook();
    dom.store_val(&st->bump, bump + need);
    dom.flush(&st->bump, sizeof(uint64_t));
    dom.fence();
    return bump + sizeof(BlockHeader);
}

uint64_t
NvHeap::shard_pop(size_t shard, size_t cls, PersistDomain& dom)
{
    HeapState* st = state();
    // Racy peek; re-checked under the shard lock.  Under record/replay
    // the peek is skipped: its outcome depends on unordered timing, and
    // control flow must only branch on ordered state.
    if (!fuzz::rr::active() && st->shards[shard].heads[cls] == 0)
        return 0;
    fuzz::rr::OrderedGuard g(shard_mutexes_[shard],
                             fuzz::obj_key(fuzz::ObjKind::kHeapShard, shard));
    uint64_t* head = &st->shards[shard].heads[cls];
    const uint64_t off = dom.load_val(head);
    if (off == 0)
        return 0;
    // Unlink durably *before* handing the block out: a crash after the
    // pop leaves an unlisted FREE block (reclaimable), a crash before
    // it leaves the list intact.  Never both live and listed.
    const uint64_t next = dom.load_val(heap_.resolve<uint64_t>(off));
    hook();
    dom.store_val(head, next);
    dom.flush(head, sizeof(uint64_t));
    dom.fence();
    m_shard_pop_->fetch_add(1, std::memory_order_relaxed);
    return off;
}

void
NvHeap::spill_cache(ThreadCache& tc, size_t cls, PersistDomain& dom,
                    bool spill_all)
{
    auto& cache = tc.free_blocks[cls];
    const size_t spill = spill_all ? cache.size() : cache.size() / 2;
    if (spill == 0)
        return;
    const size_t shard = home_shard(tc);
    HeapState* st = state();
    fuzz::rr::OrderedGuard g(shard_mutexes_[shard],
                             fuzz::obj_key(fuzz::ObjKind::kHeapShard, shard));
    uint64_t* head = &st->shards[shard].heads[cls];
    const uint64_t old_head = dom.load_val(head);

    // Phase 2 of the free protocol, batched: chain the spilled blocks
    // together and mark them FREE (one fence for the whole batch),
    // then publish the new head (second fence).  Until the publish,
    // none of them is reachable from the list, so a crash anywhere in
    // the batch leaves only reclaimable FREE/FREEING strays.
    const uint64_t ep = epoch();
    for (size_t i = 0; i < spill; ++i) {
        const uint64_t off = cache[cache.size() - 1 - i];
        const uint64_t next =
            (i + 1 < spill) ? cache[cache.size() - 2 - i] : old_head;
        uint64_t* link = heap_.resolve<uint64_t>(off);
        dom.store_val(link, next);
        dom.flush(link, sizeof(uint64_t));
        auto* hdr =
            heap_.resolve<BlockHeader>(off - sizeof(BlockHeader));
        dom.store_val(&hdr->meta, pack_meta(kBlockFree, tc.owner_tag, ep));
        dom.flush(&hdr->meta, sizeof(uint64_t));
    }
    hook();
    dom.fence();
    hook();
    const uint64_t new_head = cache.back();
    dom.store_val(head, new_head);
    dom.flush(head, sizeof(uint64_t));
    dom.fence();
    cache.resize(cache.size() - spill);
    m_spill_->fetch_add(spill, std::memory_order_relaxed);
    trace::emit(trace::EventKind::kCacheSpill, cls, spill);
}

uint64_t
NvHeap::alloc(size_t size, PersistDomain& dom, TypeId type)
{
    return alloc_impl(size, dom, type, /*aligned=*/false);
}

uint64_t
NvHeap::alloc_impl(size_t size, PersistDomain& dom, TypeId type,
                   bool aligned)
{
    if (size == 0)
        size = 1;
    ThreadCache& tc = tcache();
    const size_t cls = class_for_size(size);

    if (cls >= kNumClasses) {
        const size_t payload = (size + 15) & ~size_t{15};
        const uint64_t off =
            carve_global(payload, tc.owner_tag, dom, type, aligned);
        if (off != 0) {
            m_alloc_->fetch_add(1, std::memory_order_relaxed);
            m_oversize_->fetch_add(1, std::memory_order_relaxed);
            oversize_blocks_.fetch_add(1, std::memory_order_relaxed);
            oversize_bytes_.fetch_add(payload + sizeof(BlockHeader),
                                      std::memory_order_relaxed);
            trace::emit(trace::EventKind::kAlloc, off, payload);
        }
        return off;
    }

    const size_t payload = class_payload(cls);
    uint64_t off = 0;

    // 1. Transient cache: blocks this thread freed (state FREEING).
    //    One line write-back flips them LIVE; no shared state and no
    //    fence -- the mark is coalesced into whichever fence next runs
    //    on this thread.  A caller that durably publishes the offset
    //    fences first, which persists the LIVE mark ahead of the
    //    publish; a caller that never fences loses the block to a
    //    crash either way (it surfaces as a reclaimable stray).
    auto& cache = tc.free_blocks[cls];
    if (!cache.empty()) {
        off = cache.back();
        cache.pop_back();
        hook();
        set_meta(off,
                 pack_meta(kBlockLive, tc.owner_tag, epoch(), type, aligned),
                 dom, /*fence=*/false);
        m_cache_hit_->fetch_add(1, std::memory_order_relaxed);
    }
    // 2. Home-shard free list (cheap racy peek before locking).
    if (off == 0) {
        off = shard_pop(home_shard(tc), cls, dom);
        if (off != 0) {
            hook();
            set_meta(off,
                     pack_meta(kBlockLive, tc.owner_tag, epoch(), type,
                               aligned),
                     dom);
        }
    }
    // 3. Private bump chunk (refilled from the global arena).
    if (off == 0) {
        off = carve_from_chunk(tc, payload, tc.owner_tag, dom, type,
                               aligned);
        if (off == 0 && refill_chunk(tc, dom))
            off = carve_from_chunk(tc, payload, tc.owner_tag, dom, type,
                                   aligned);
    }
    // 4. Steal from any shard, then the arena tail, before giving up.
    if (off == 0) {
        for (size_t s = 0; s < kNumShards && off == 0; ++s)
            off = shard_pop(s, cls, dom);
        if (off != 0) {
            hook();
            set_meta(off,
                     pack_meta(kBlockLive, tc.owner_tag, epoch(), type,
                               aligned),
                     dom);
        }
    }
    if (off == 0)
        off = carve_global(payload, tc.owner_tag, dom, type, aligned);
    if (off != 0) {
        m_alloc_->fetch_add(1, std::memory_order_relaxed);
        cls_alloc_[cls].fetch_add(1, std::memory_order_relaxed);
        trace::emit(trace::EventKind::kAlloc, off, payload);
    }
    return off;
}

uint64_t
NvHeap::alloc_aligned(size_t size, PersistDomain& dom, TypeId type)
{
    // Room for the 8-byte tagged back-pointer plus worst-case slack.
    const uint64_t raw = alloc_impl(size + 8 + 64, dom, type,
                                    /*aligned=*/true);
    if (raw == 0)
        return 0;
    const uint64_t aligned = (raw + 8 + 63) & ~uint64_t{63};
    IDO_ASSERT(aligned >= raw + 8);
    // Tag nibble 0x1 distinguishes the back-pointer from a plain
    // block's header meta word (whose low nibble is 0xe or 0x2).
    // Written back, fence coalesced: the back-pointer only matters to
    // a post-crash free of this block, which requires the caller to
    // have durably published the offset -- and that publish fence
    // persists the back-pointer first.
    auto* backptr = heap_.resolve<uint64_t>(aligned - 8);
    dom.store_val(backptr, raw | 0x1);
    dom.flush(backptr, sizeof(uint64_t));
    return aligned;
}

void
NvHeap::validate_for_free(uint64_t payload_off, const BlockHeader* hdr,
                          uint64_t meta) const
{
    const uint64_t st = meta_state(meta);
    if (st != kBlockLive) {
        panic("nvheap: free of non-LIVE block: payload=0x%llx "
              "header={size=0x%llx meta=0x%llx} state=%s "
              "owner=%u epoch=%llu cur_epoch=%llu -- %s",
              (unsigned long long)payload_off,
              (unsigned long long)hdr->size, (unsigned long long)meta,
              state_name(st), (unsigned)meta_owner(meta),
              (unsigned long long)meta_epoch(meta),
              (unsigned long long)epoch(),
              st == kBlockFreeing || st == kBlockFree
                  ? "double free"
                  : "wild or corrupted pointer");
    }
    if (hdr->size == 0 || hdr->size > heap_.size()
        || payload_off + hdr->size > heap_.size()) {
        panic("nvheap: free of block with corrupt size: payload=0x%llx "
              "header={size=0x%llx meta=0x%llx} owner=%u",
              (unsigned long long)payload_off,
              (unsigned long long)hdr->size, (unsigned long long)meta,
              (unsigned)meta_owner(meta));
    }
}

void
NvHeap::free_block(uint64_t payload_off, PersistDomain& dom)
{
    // Validate the offset itself before dereferencing anything.
    if (payload_off < data_begin_ + sizeof(BlockHeader)
        || payload_off >= heap_.size() || (payload_off & 0xf) != 0) {
        panic("nvheap: free of invalid offset 0x%llx "
              "(arena data [0x%llx, 0x%llx), 16-byte aligned)",
              (unsigned long long)payload_off,
              (unsigned long long)data_begin_,
              (unsigned long long)heap_.size());
    }
    // For a plain block the word at payload-8 *is* the header's meta
    // word (header = {size @ -16, meta @ -8}), so one load serves both
    // the aligned-block probe and the state validation.
    const uint64_t below =
        dom.load_val(heap_.resolve<uint64_t>(payload_off - 8));
    if ((below & 0xf) == 0x1) {
        // Aligned block: redirect to the underlying raw payload.
        free_block(below & ~uint64_t{0xf}, dom);
        return;
    }
    ThreadCache& tc = tcache();
    auto* hdr =
        heap_.resolve<BlockHeader>(payload_off - sizeof(BlockHeader));
    const uint64_t meta = below;
    validate_for_free(payload_off, hdr, meta);
    trace::emit(trace::EventKind::kFree, payload_off);

    const uint64_t size = dom.load_val(&hdr->size);
    const size_t cls = class_for_size(size);

    // Phase 1: mark the block FREEING, tagged with this thread and
    // epoch.  From here on it can never be handed out again until
    // either this thread recycles it (cache hit), a spill completes
    // phase 2, or recover_leaks() relinks it after a crash.  The mark
    // is written back but not fenced: it rides the next fence this
    // thread issues (a spill, a carve, or the caller's next durable
    // publish).  If a crash beats every later fence, the block reads
    // back LIVE with a stale epoch -- a bounded leak, never a
    // double-handout, since nothing links a block while it is parked
    // in a transient cache.
    hook();
    set_meta(payload_off, pack_meta(kBlockFreeing, tc.owner_tag, epoch()),
             dom, /*fence=*/false);
    m_free_->fetch_add(1, std::memory_order_relaxed);

    if (cls < kNumClasses && class_payload(cls) == size) {
        cls_free_[cls].fetch_add(1, std::memory_order_relaxed);
        auto& cache = tc.free_blocks[cls];
        cache.push_back(payload_off);
        if (cache.size() >= kCacheCap)
            spill_cache(tc, cls, dom);
    } else {
        // Oversize blocks are not recycled (bump-only, as in v1);
        // finalize to FREE so walkers see a settled state.
        oversize_freed_blocks_.fetch_add(1, std::memory_order_relaxed);
        oversize_freed_bytes_.fetch_add(size + sizeof(BlockHeader),
                                        std::memory_order_relaxed);
        hook();
        set_meta(payload_off, pack_meta(kBlockFree, tc.owner_tag, epoch()),
                 dom);
    }
}

uint64_t
NvHeap::arena_remaining() const
{
    const HeapState* st = state();
    return st->end - st->bump;
}

// --------------------------------------------------------------------------
// Walks: consistency checking, live census, leak reclamation
// --------------------------------------------------------------------------

ArenaWalk
NvHeap::arena_walk() const
{
    return ArenaWalk(heap_, data_begin_, state()->bump);
}

uint64_t
NvHeap::live_blocks() const
{
    uint64_t live = 0;
    arena_walk().for_each([&](uint64_t, uint64_t, uint64_t meta) {
        if (meta_state(meta) == kBlockLive)
            ++live;
    });
    return live;
}

bool
NvHeap::check_consistency() const
{
    const HeapState* st = state();
    if (st->magic != kStateMagic)
        return false;
    const ArenaWalk walk = arena_walk();
    if (walk.end() != ArenaWalk::End::kBump
        || !walk.for_each([](uint64_t, uint64_t, uint64_t) {}))
        return false;
    // Every free-list entry must be in state FREE with a matching
    // class size, and the lists must be acyclic.
    for (size_t s = 0; s < kNumShards; ++s) {
        for (size_t c = 0; c < kNumClasses; ++c) {
            uint64_t p = st->shards[s].heads[c];
            size_t hops = 0;
            while (p != 0) {
                const auto* hdr =
                    heap_.resolve<BlockHeader>(p - sizeof(BlockHeader));
                if (meta_state(hdr->meta) != kBlockFree)
                    return false;
                if (hdr->size != kClassSizes[c])
                    return false;
                p = *heap_.resolve<uint64_t>(p);
                if (++hops > heap_.size() / 16)
                    return false; // cycle
            }
        }
    }
    // Retired chunks on the reuse list must still carry their chunk
    // header (the walk relies on it to skip them as a unit) and the
    // list must be acyclic.
    {
        uint64_t c = st->chunk_free;
        size_t hops = 0;
        while (c != 0) {
            const auto* words = heap_.resolve<uint64_t>(c);
            if (words[0] != kChunkMagic || words[1] != kChunkBytes)
                return false;
            c = *heap_.resolve<uint64_t>(c + sizeof(BlockHeader));
            if (++hops > heap_.size() / kChunkBytes + 1)
                return false; // cycle
        }
    }
    return true;
}

uint64_t
NvHeap::recover_leaks(PersistDomain& dom)
{
    {
        // The relink rewrites headers the attach index recorded.
        std::lock_guard<std::mutex> g(tc_mutex_);
        attach_reclaim_.index.reset();
    }
    return reclaim_pass(dom, /*chase=*/true, /*seed=*/false,
                        /*keep_index=*/false)
        .blocks;
}

NvHeap::AttachReclaim
NvHeap::reclaim_pass(PersistDomain& dom, bool chase, bool seed,
                     bool keep_index)
{
    const uint64_t t_begin = stat_now_ns();
    // Serialize against every mutator path; reclamation is a recovery
    // operation but must be safe even if called mid-run.
    std::lock_guard<std::mutex> rg(refill_mutex_);
    std::unique_lock<std::mutex> sg[kNumShards];
    for (size_t s = 0; s < kNumShards; ++s)
        sg[s] = std::unique_lock<std::mutex>(shard_mutexes_[s]);

    HeapState* st = state();
    const uint64_t cur_epoch = dom.load_val(&st->epoch);
    const ArenaWalk walk = arena_walk();
    const size_t workers = walk.workers();
    AttachReclaim r;
    r.ran = true;

    // Strays: FREEING with a stale epoch means the freeing run died (or
    // shut down) between the phases; FREE but unlisted means it died
    // between a spill batch and its head publish (or between a shard
    // pop's unlink and the LIVE flip).  Current-epoch FREEING blocks are
    // parked in live transient caches -- leave them alone.  MOVED blocks
    // are compaction carcasses, reclaimed only by chunk retirement, and
    // oversize blocks are bump-only: neither is ever relinked.
    struct alignas(64) Lane
    {
        std::vector<uint64_t> strays;
        std::vector<uint64_t> free; ///< FREE: a stray unless listed
        uint64_t cls_alloc[kNumClasses] = {};
        uint64_t cls_free[kNumClasses] = {};
        uint64_t oversize_blocks = 0;
        uint64_t oversize_bytes = 0;
    };
    std::vector<Lane> lanes(workers);
    const uint64_t stale = epoch_tag(cur_epoch);
    uint64_t t = stat_now_ns();
    bool well_formed = true;
    const std::vector<size_t> first = walk.visit(
        [&](size_t w, uint64_t payload, uint64_t size, uint64_t meta) {
            Lane& ln = lanes[w];
            const uint64_t s = meta_state(meta);
            const size_t cls = class_for_size(size);
            if (cls >= kNumClasses || kClassSizes[cls] != size) {
                if (s == kBlockLive) {
                    ++ln.oversize_blocks;
                    ln.oversize_bytes += size + sizeof(BlockHeader);
                }
                return;
            }
            ++ln.cls_alloc[cls];
            if (s == kBlockLive)
                return;
            ++ln.cls_free[cls];
            if (s == kBlockFreeing && meta_epoch(meta) < stale)
                ln.strays.push_back(payload);
            else if (s == kBlockFree && chase)
                ln.free.push_back(payload);
        },
        &well_formed);
    r.walked_blocks = first.back();
    r.walk_ns = stat_now_ns() - t;

    // Free-list membership, one bit per 16-byte granule (payloads are
    // 16-aligned), set by chasing the kNumShards x kNumClasses lists --
    // side by side on a big heap.  After the walk, so the hops land on
    // pages the walk already mapped.
    t = stat_now_ns();
    if (chase) {
        std::vector<uint64_t> listed((heap_.size() / 16 + 63) / 64, 0);
        const auto bit = [&listed](uint64_t p) {
            return std::atomic_ref<uint64_t>(listed[p >> 10]);
        };
        const auto mask = [](uint64_t p) {
            return uint64_t{1} << ((p >> 4) & 63);
        };
        uint64_t hops[kNumShards * kNumClasses] = {};
        parallel_for(kNumShards * kNumClasses, workers, 1,
                     [&](size_t, size_t l) {
            uint64_t p = st->shards[l / kNumClasses].heads[l % kNumClasses];
            while (p != 0) {
                IDO_ASSERT(p + sizeof(uint64_t) <= heap_.size(),
                           "nvheap: free-list entry outside the heap");
                IDO_ASSERT(++hops[l] <= heap_.size() / 16,
                           "nvheap: free-list cycle during reclaim");
                bit(p).fetch_or(mask(p), std::memory_order_relaxed);
                p = *heap_.resolve<uint64_t>(p);
            }
        });
        for (const uint64_t h : hops)
            r.listed_blocks += h;
        for (Lane& ln : lanes) {
            for (const uint64_t p : ln.free)
                if ((bit(p).load(std::memory_order_relaxed) & mask(p)) == 0)
                    ln.strays.push_back(p);
            std::vector<uint64_t>().swap(ln.free);
        }
    } // the bitmap is gone before any index exists
    r.chase_ns = stat_now_ns() - t;

    // Relink in address order, the j-th stray onto shard j % kNumShards
    // of its class, each touched list as one batch.
    t = stat_now_ns();
    std::vector<uint64_t> strays;
    for (Lane& ln : lanes)
        strays.insert(strays.end(), ln.strays.begin(), ln.strays.end());
    std::sort(strays.begin(), strays.end());
    std::vector<uint64_t> batches[kNumShards][kNumClasses];
    uint64_t bytes = 0;
    for (size_t j = 0; j < strays.size(); ++j) {
        const uint64_t size =
            heap_.resolve<BlockHeader>(strays[j] - sizeof(BlockHeader))->size;
        batches[j % kNumShards][class_for_size(size)].push_back(strays[j]);
        bytes += size + sizeof(BlockHeader);
    }
    for (size_t s = 0; s < kNumShards; ++s)
        for (size_t c = 0; c < kNumClasses; ++c)
            if (!batches[s][c].empty())
                relink_batch(s, c, batches[s][c], cur_epoch, dom);
    r.blocks = strays.size();
    if (r.blocks != 0)
        m_leak_reclaim_->fetch_add(r.blocks, std::memory_order_relaxed);
    reclaim_stats_.blocks += r.blocks;
    reclaim_stats_.bytes += bytes;
    r.relink_ns = stat_now_ns() - t;

    if (seed) {
        for (const Lane& ln : lanes) {
            for (size_t c = 0; c < kNumClasses; ++c) {
                cls_alloc_[c].fetch_add(ln.cls_alloc[c],
                                        std::memory_order_relaxed);
                cls_free_[c].fetch_add(ln.cls_free[c],
                                       std::memory_order_relaxed);
            }
            oversize_blocks_.fetch_add(ln.oversize_blocks,
                                       std::memory_order_relaxed);
            oversize_bytes_.fetch_add(ln.oversize_bytes,
                                      std::memory_order_relaxed);
        }
    }
    // A malformed arena gets no index: HeapGc walks it itself and
    // reports it.
    if (keep_index && well_formed
        && walk.end() != ArenaWalk::End::kMalformed) {
        t = stat_now_ns();
        r.index = walk.fill(first);
        r.walk_ns += stat_now_ns() - t;
    }
    r.ns = stat_now_ns() - t_begin;
    return r;
}

void
NvHeap::relink_batch(size_t shard, size_t cls,
                     const std::vector<uint64_t>& batch, uint64_t epoch,
                     PersistDomain& dom)
{
    // The same two-fence shape as a spill: chain the blocks (lowest
    // offset deepest) and mark them FREE under one fence, then publish
    // the head.  A crash anywhere before the publish leaves them strays
    // for the next reclaim.
    uint64_t* head = &state()->shards[shard].heads[cls];
    uint64_t next = dom.load_val(head);
    for (const uint64_t payload : batch) {
        trace::emit(trace::EventKind::kLeakReclaim, payload,
                    meta_state(heap_.resolve<BlockHeader>(
                                   payload - sizeof(BlockHeader))
                                   ->meta));
        uint64_t* link = heap_.resolve<uint64_t>(payload);
        dom.store_val(link, next);
        dom.flush(link, sizeof(uint64_t));
        set_meta(payload, pack_meta(kBlockFree, 0, epoch), dom,
                 /*fence=*/false);
        next = payload;
    }
    hook();
    dom.fence();
    hook();
    dom.store_val(head, next);
    dom.flush(head, sizeof(uint64_t));
    dom.fence();
}

NvHeap::AttachReclaim
NvHeap::take_attach_reclaim()
{
    std::lock_guard<std::mutex> g(tc_mutex_);
    return std::exchange(attach_reclaim_, AttachReclaim{});
}

void
NvHeap::for_each_block(
    const std::function<void(uint64_t, uint64_t, uint64_t)>& fn) const
{
    arena_walk().for_each(fn);
}

TypeId
NvHeap::block_type(uint64_t payload_off) const
{
    // The offset handed out by alloc_aligned points at the *published*
    // (line-aligned) payload; the back-pointer word right before it
    // leads to the raw payload whose header carries the meta word.
    uint64_t raw = payload_off;
    if (payload_off >= sizeof(uint64_t)) {
        const uint64_t tag =
            *heap_.resolve<uint64_t>(payload_off - sizeof(uint64_t));
        if ((tag & 0xf) == 0x1) {
            const uint64_t cand = tag & ~uint64_t{0xf};
            if (cand < payload_off && payload_off - cand <= 8 + 64) {
                const auto* hdr =
                    heap_.resolve<BlockHeader>(cand - sizeof(BlockHeader));
                if (meta_aligned(hdr->meta))
                    raw = cand;
            }
        }
    }
    const auto* hdr = heap_.resolve<BlockHeader>(raw - sizeof(BlockHeader));
    return meta_type(hdr->meta);
}

void
NvHeap::flush_transient_caches(PersistDomain& dom)
{
    // Push every cached FREEING block onto the durable shard lists so
    // no transient cache holds an offset into a chunk the GC is about
    // to relocate or retire.  Chunk cursors are abandoned too: a
    // cursor into a chunk the GC then retires would otherwise carve
    // LIVE headers into a zeroed (possibly re-handed-out) chunk.  The
    // abandoned tail is dead space until its chunk empties and
    // retires, the same bounded cost a crash already has.
    std::lock_guard<std::mutex> g(tc_mutex_);
    for (auto& up : tcs_) {
        ThreadCache& tc = *up;
        for (size_t c = 0; c < kNumClasses; ++c) {
            if (!tc.free_blocks[c].empty())
                spill_cache(tc, c, dom, /*spill_all=*/true);
        }
        tc.chunk_cursor = 0;
        tc.chunk_end = 0;
    }
}

} // namespace ido::nvm
