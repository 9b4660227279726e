/**
 * @file
 * The one header walker over NvHeap's arena, shared by the allocator
 * (attach pass, leak reclaim, diagnostics) and HeapGc (block index).
 *
 * The arena is a run of *segments* in address order: 16-KiB chunks
 * (first word arena::kChunkMagic) holding a packed prefix of
 * [BlockHeader|payload] blocks, and oversize blocks carved straight
 * from the global bump between them.  Listing the segments is one
 * serial hop per chunk; walking the blocks inside them is one
 * dependent cache miss per block, so a big heap's segments are walked
 * on every core (from kParallelChunks chunks up) -- once to visit and
 * count, and, when an index is wanted, once more to fill a block array
 * sized exactly from the counts.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "nvm/persistent_heap.h"

namespace ido::nvm {

/** The arena's on-media layout constants (re-exported as NvHeap::k*). */
namespace arena {
constexpr uint64_t kHeaderBytes = 16; ///< {size, meta} before a payload
constexpr uint64_t kChunkBytes = 16384;
/** First word of a chunk; cannot collide with a block size. */
constexpr uint64_t kChunkMagic = 0xc7a2c7a2c7a2c7a2ull;
// Block states (low 16 bits of the header meta word).  The low
// nibble must never be 0x1: that nibble distinguishes a plain
// header from an aligned block's tagged back-pointer.
constexpr uint64_t kBlockLive = 0xa1ce;
constexpr uint64_t kBlockFreeing = 0xf4e2; ///< phase 1 of a free
constexpr uint64_t kBlockFree = 0xf4ee;    ///< phase 2 of a free
/** Relocated by compaction: the journal maps it to its copy. */
constexpr uint64_t kBlockMoved = 0x30ed;

/** A header meta word's state is one NvHeap ever writes. */
constexpr bool
recognized(uint64_t meta)
{
    const uint64_t st = meta & 0xffff;
    return st == kBlockLive || st == kBlockFreeing || st == kBlockFree
           || st == kBlockMoved;
}
} // namespace arena

/** Smallest count of carved chunks (16 KiB each) whose headers are
 *  walked on worker_count() threads. */
constexpr size_t kParallelChunks = 1024;

/** Threads a parallel pass uses: every hardware thread, at least 1. */
inline size_t
worker_count()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * fn(worker, begin, end) over [0, n) on `workers` threads -- worker 0
 * is the calling thread -- each claiming `batch` consecutive indexes
 * [begin, end) at a time, so uneven items balance out.
 */
template <typename Fn>
void
parallel_ranges(size_t n, size_t workers, size_t batch, Fn&& fn)
{
    std::atomic<size_t> cursor{0};
    const auto run = [&](size_t worker) {
        for (;;) {
            const size_t begin =
                cursor.fetch_add(batch, std::memory_order_relaxed);
            if (begin >= n)
                return;
            fn(worker, begin, std::min(begin + batch, n));
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w)
        helpers.emplace_back(run, w);
    run(0);
    for (std::thread& t : helpers)
        t.join();
}

/** fn(worker, k) for every k < n, claimed as in parallel_ranges. */
template <typename Fn>
void
parallel_for(size_t n, size_t workers, size_t batch, Fn&& fn)
{
    parallel_ranges(n, workers, batch,
                    [&](size_t worker, size_t begin, size_t end) {
                        for (size_t k = begin; k < end; ++k)
                            fn(worker, k);
                    });
}

/** One block of a heap index.  The last three bytes are HeapGc's
 *  per-block scratch; fill() zeroes them. */
struct IndexedBlock
{
    uint64_t raw;  ///< raw payload offset (header at raw-16)
    uint64_t size; ///< class-rounded payload size
    uint64_t meta;
    uint8_t marked; ///< claimed through std::atomic_ref
    bool opaque;    ///< LIVE with no usable descriptor
    bool pinned;
};

/** Arrays from this size up are mapped 2-MiB aligned and advised
 *  MADV_HUGEPAGE (see DefaultInitAllocator). */
constexpr size_t kHugeIndexBytes = size_t{4} << 20;
constexpr size_t kHugePageBytes = size_t{2} << 20;

/** A fresh kHugePageBytes-aligned anonymous mapping of `bytes`,
 *  advised MADV_HUGEPAGE before anything touches it.  Its last
 *  partial huge page stays on small pages, so it adds no memory. */
void* map_huge(size_t bytes);
void unmap_huge(void* p, size_t bytes);

/**
 * std::allocator whose argument-less construct() default-initializes,
 * so resize() leaves trivial elements unwritten instead of zeroing a
 * whole index on one thread: the parallel fill writes -- and first
 * touches -- every element itself.  Arrays of kHugeIndexBytes or more
 * come from map_huge(): a heap index is read at random by the GC mark,
 * and on 4-KiB pages nearly every such read is also a TLB miss.  The
 * advice concerns this process's own mapping only; where transparent
 * huge pages are off it changes nothing.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };

    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept
    {
    }

    T*
    allocate(size_t n)
    {
        if (n * sizeof(T) < kHugeIndexBytes)
            return std::allocator<T>::allocate(n);
        return static_cast<T*>(map_huge(n * sizeof(T)));
    }

    void
    deallocate(T* p, size_t n) noexcept
    {
        if (n * sizeof(T) < kHugeIndexBytes)
            std::allocator<T>::deallocate(p, n);
        else
            unmap_huge(p, n * sizeof(T));
    }

    template <typename U>
    void
    construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void
    construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

using IndexedBlocks =
    std::vector<IndexedBlock, DefaultInitAllocator<IndexedBlock>>;

/** One carved chunk and the index range of its blocks. */
struct IndexedChunk
{
    uint64_t off;       ///< chunk header offset
    size_t first_block; ///< index into blocks (first_block==last_block
    size_t last_block;  ///<  means the chunk holds no blocks)
};

/** Every block of the arena in address order, and every chunk. */
struct HeapIndex
{
    IndexedBlocks blocks;
    std::vector<IndexedChunk> chunks;
};

/** The segments of one arena, listed once at construction, and the
 *  walks over the blocks inside them. */
class ArenaWalk
{
  public:
    /** Why the segment listing ended. */
    enum class End
    {
        kBump,      ///< reached the bump pointer: the arena is whole
        kTornTail,  ///< an oversize header in no recognized state
        kMalformed, ///< a bad chunk header or an oversize overrun
    };

    /** List the segments of [data_begin, bump). */
    ArenaWalk(const PersistentHeap& heap, uint64_t data_begin,
              uint64_t bump);

    End end() const { return end_; }

    /** Threads a per-segment pass runs on: 1 below kParallelChunks. */
    size_t
    workers() const
    {
        return nchunks_ < kParallelChunks ? 1 : worker_count();
    }

    /**
     * fn(raw, size, meta) for every block of segment k, in address
     * order.  A chunk's walk stops at its first header in no recognized
     * state (the unused tail); returns false if it instead stopped at a
     * recognized header whose block overruns the chunk.
     */
    template <typename Fn>
    bool
    walk(size_t k, Fn&& fn) const
    {
        const Segment& sg = segs_[k];
        if (sg.size != 0) {
            fn(sg.off, sg.size, sg.meta);
            return true;
        }
        return walk_chunk(sg.off, fn);
    }

    /** walk() over every segment in order on the calling thread;
     *  stops at, and returns false on, the first malformed chunk. */
    template <typename Fn>
    bool
    for_each(Fn&& fn) const
    {
        for (size_t k = 0; k < segs_.size(); ++k)
            if (!walk(k, fn))
                return false;
        return true;
    }

    /**
     * fn(worker, raw, size, meta) for every block, segments spread over
     * workers() threads (worker < workers()).  Returns the block-count
     * prefix sums per segment -- segment k's blocks are [first[k],
     * first[k + 1]) in address order -- for fill().  *well_formed
     * turns false if any chunk was malformed; its walk stopped there.
     */
    template <typename Fn>
    std::vector<size_t>
    visit(Fn&& fn, bool* well_formed) const
    {
        std::vector<size_t> first(segs_.size() + 1, 0);
        std::atomic<bool> ok{true};
        parallel_for(segs_.size(), workers(), 8, [&](size_t w, size_t k) {
            size_t n = 0;
            if (!walk(k, [&](uint64_t raw, uint64_t size, uint64_t meta) {
                    fn(w, raw, size, meta);
                    ++n;
                }))
                ok.store(false, std::memory_order_relaxed);
            first[k + 1] = n;
        });
        for (size_t k = 0; k < segs_.size(); ++k)
            first[k + 1] += first[k];
        *well_formed = ok.load(std::memory_order_relaxed);
        return first;
    }

    /** The index of a well-formed arena whose headers have not changed
     *  since visit() returned `first`. */
    HeapIndex fill(const std::vector<size_t>& first) const;

    /** visit() + fill(); false (and no index) if a chunk is malformed. */
    bool index(HeapIndex* out) const;

  private:
    /** A chunk (size 0) or an oversize block (its payload). */
    struct Segment
    {
        uint64_t off, size, meta;
    };

    template <typename Fn>
    bool
    walk_chunk(uint64_t chunk, Fn& fn) const
    {
        constexpr uint64_t kHdr = arena::kHeaderBytes;
        const uint64_t chunk_end = chunk + arena::kChunkBytes;
        for (uint64_t b = chunk + kHdr; b + kHdr <= chunk_end;) {
            const auto* bw = heap_.resolve<uint64_t>(b);
            if (!arena::recognized(bw[1]))
                break; // unused (or retired-and-zeroed) tail
            if (bw[0] == 0 || b + kHdr + bw[0] > chunk_end)
                return false;
            fn(b + kHdr, bw[0], bw[1]);
            b += kHdr + bw[0];
        }
        return true;
    }

    const PersistentHeap& heap_;
    std::vector<Segment> segs_;
    size_t nchunks_ = 0;
    End end_ = End::kBump;
};

} // namespace ido::nvm
