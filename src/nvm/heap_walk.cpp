#include "nvm/heap_walk.h"

#include "common/panic.h"

namespace ido::nvm {

ArenaWalk::ArenaWalk(const PersistentHeap& heap, uint64_t data_begin,
                     uint64_t bump)
    : heap_(heap)
{
    constexpr uint64_t kHdr = arena::kHeaderBytes;
    uint64_t off = data_begin;
    while (off + kHdr <= bump) {
        const auto* words = heap_.resolve<uint64_t>(off);
        if (words[0] == arena::kChunkMagic) {
            if (words[1] != arena::kChunkBytes || off + words[1] > bump) {
                end_ = End::kMalformed;
                return;
            }
            segs_.push_back(Segment{off, 0, 0});
            ++nchunks_;
            off += words[1];
        } else {
            // Oversize (or arena-tail) block carved straight from the
            // global arena.
            if (!arena::recognized(words[1])) {
                end_ = End::kTornTail;
                return;
            }
            if (words[0] == 0 || off + kHdr + words[0] > heap_.size()) {
                end_ = End::kMalformed;
                return;
            }
            segs_.push_back(Segment{off + kHdr, words[0], words[1]});
            off += kHdr + words[0];
        }
    }
}

HeapIndex
ArenaWalk::fill(const std::vector<size_t>& first) const
{
    HeapIndex idx;
    idx.blocks.resize(first.back());
    parallel_for(segs_.size(), workers(), 8, [&](size_t, size_t k) {
        size_t i = first[k];
        walk(k, [&](uint64_t raw, uint64_t size, uint64_t meta) {
            IDO_ASSERT(i < first[k + 1], "heap walk: chunk changed mid-index");
            idx.blocks[i++] = IndexedBlock{raw, size, meta, 0, false, false};
        });
        IDO_ASSERT(i == first[k + 1], "heap walk: chunk changed mid-index");
    });
    idx.chunks.reserve(nchunks_);
    for (size_t k = 0; k < segs_.size(); ++k)
        if (segs_[k].size == 0)
            idx.chunks.push_back(
                IndexedChunk{segs_[k].off, first[k], first[k + 1]});
    return idx;
}

bool
ArenaWalk::index(HeapIndex* out) const
{
    bool ok = true;
    const std::vector<size_t> first =
        visit([](size_t, uint64_t, uint64_t, uint64_t) {}, &ok);
    if (!ok)
        return false;
    *out = fill(first);
    return true;
}

} // namespace ido::nvm
