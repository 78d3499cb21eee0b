/**
 * @file
 * Bounded lock-free MPSC submission queue with lent frame payloads.
 *
 * The serving frontend's ingestion edge: any number of client
 * threads enqueue stereo frames concurrently, one dispatcher thread
 * dequeues them. The design is the classic bounded ring with
 * per-cell sequence counters (Vyukov's MPMC queue, restricted here
 * to a single consumer): a producer claims a cell with one CAS on
 * the enqueue cursor, fills it, and publishes it by bumping the
 * cell's sequence; the consumer spins on nothing and blocks on
 * nothing — an unpublished head cell just reads as "empty". The
 * ring itself has no mutex (the arena's acquire is one short
 * critical section that no thread holds across a wait), so a
 * stalled client can never wedge another client or the dispatcher,
 * and a full queue is reported to the producer (backpressure)
 * instead of blocking inside the queue.
 *
 * Lent payloads: a cell owns no pixel storage of its own. A
 * producer acquires a left/right pair from the server's BufferPool
 * arena and copies the client's pixels into it; the consumer
 * *moves* the pair out, so an idle cell is just its header and the
 * ring's resident memory follows the frames queued in it, not its
 * capacity. The pair travels on by move (pending slot, pipeline
 * snapshot) and goes back to the arena when its last holder drops
 * it. Once the arena holds pairs of the frame shape, both
 * directions are allocation-free — the serve hot path contract
 * (tests/serve_test.cpp guards it with AllocTracker).
 *
 * Memory ordering: the CAS claims exclusive write access to the
 * cell; the release store of seq = pos + 1 publishes the payload;
 * the consumer's acquire load of seq synchronizes-with it. The
 * consumer's release store of seq = pos + capacity hands the cell
 * back to the producer that will claim position pos + capacity,
 * whose acquire load synchronizes-with that — so the consumer's
 * move out of a cell happens-before the next producer's fill.
 */

#ifndef ASV_SERVE_FRAME_QUEUE_HH
#define ASV_SERVE_FRAME_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/logging.hh"
#include "image/image.hh"

namespace asv::serve
{

/** Client-visible stream handle (index into the server's table). */
using StreamId = int32_t;

/**
 * The lock-free submission ring. One instance per Server; capacity
 * is rounded up to a power of two and fixed for the queue's life.
 */
class FrameQueue
{
  public:
    /** One dequeued submission (its pair is moved out of the cell). */
    struct Item
    {
        StreamId stream = -1;
        image::Image left;
        image::Image right;
    };

    /** @p arena lends every payload and must outlive the queue. */
    FrameQueue(int capacity, BufferPool &arena)
        : mask_(roundUpPow2(capacity) - 1),
          cells_(roundUpPow2(capacity)), arena_(arena)
    {
        fatal_if(capacity < 1, "FrameQueue capacity must be >= 1");
        for (size_t i = 0; i < cells_.size(); ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    FrameQueue(const FrameQueue &) = delete;
    FrameQueue &operator=(const FrameQueue &) = delete;

    /**
     * Enqueue a frame for @p stream, copying both images into a
     * pair lent by the arena (allocation-free once the arena holds
     * pairs of this shape). Returns false when the ring is
     * full: the caller decides whether that is backpressure (block
     * and retry) or rejection (report to the client). Safe from any
     * number of threads concurrently.
     */
    bool
    tryEnqueue(StreamId stream, const image::Image &left,
               const image::Image &right)
    {
        Cell *cell;
        uint64_t pos = enqueuePos_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            const uint64_t seq =
                cell->seq.load(std::memory_order_acquire);
            const int64_t dif = static_cast<int64_t>(seq) -
                                static_cast<int64_t>(pos);
            if (dif == 0) {
                if (enqueuePos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // full (consumer has not freed it yet)
            } else {
                pos = enqueuePos_.load(std::memory_order_relaxed);
            }
        }
        cell->stream = stream;
        cell->left = lend(left);
        cell->right = lend(right);
        cell->seq.store(pos + 1, std::memory_order_release);
        return true;
    }

    /**
     * Dequeue the oldest submission into @p out, moving its pair
     * out of the cell (a pair still in @p out goes back to the
     * arena first). Single consumer only. Returns false when empty.
     */
    bool
    tryDequeue(Item &out)
    {
        Cell &cell = cells_[dequeuePos_ & mask_];
        const uint64_t seq = cell.seq.load(std::memory_order_acquire);
        if (static_cast<int64_t>(seq) -
                static_cast<int64_t>(dequeuePos_ + 1) <
            0)
            return false; // head cell not published yet
        out.stream = cell.stream;
        out.left = std::move(cell.left);
        out.right = std::move(cell.right);
        cell.seq.store(dequeuePos_ + mask_ + 1,
                       std::memory_order_release);
        ++dequeuePos_;
        dequeuePosApprox_.store(dequeuePos_,
                                std::memory_order_relaxed);
        return true;
    }

    /** Ring capacity (power of two >= the requested capacity). */
    int capacity() const { return static_cast<int>(mask_ + 1); }

    /**
     * Approximate occupancy (racy by nature — cursors move under
     * the caller); for stats/heartbeat only.
     */
    int
    approxSize() const
    {
        const uint64_t tail =
            enqueuePos_.load(std::memory_order_relaxed);
        const uint64_t head = dequeuePosApprox_.load(
            std::memory_order_relaxed);
        return tail >= head ? static_cast<int>(tail - head) : 0;
    }

  private:
    /** A pooled copy of @p src, drawn from the arena. */
    image::Image
    lend(const image::Image &src)
    {
        image::Image img = image::acquireImageUninit(
            arena_, src.width(), src.height());
        std::copy(src.data(), src.data() + src.size(), img.data());
        return img;
    }

    struct Cell
    {
        std::atomic<uint64_t> seq{0};
        StreamId stream = -1;
        image::Image left;
        image::Image right;
    };

    static size_t
    roundUpPow2(int v)
    {
        size_t p = 1;
        while (p < static_cast<size_t>(v))
            p <<= 1;
        return p;
    }

    const uint64_t mask_;
    std::vector<Cell> cells_;
    BufferPool &arena_;
    alignas(64) std::atomic<uint64_t> enqueuePos_{0};
    // Consumer-private cursor plus a relaxed mirror for approxSize().
    alignas(64) uint64_t dequeuePos_ = 0;
    std::atomic<uint64_t> dequeuePosApprox_{0};
};

} // namespace asv::serve

#endif // ASV_SERVE_FRAME_QUEUE_HH
