/**
 * @file
 * The admission queue of the serving loop (serve/serve_loop.h), which
 * both ServingSim::run and FaultServingSim::run instantiate.
 *
 * Queued jobs sit in per-class FIFOs, each entry stamped with a global
 * insertion number. The head is the entry with the smallest stamp —
 * the earliest-queued job of any class — and a p4db-style batch takes
 * only jobs of the head's class, so forming and removing a batch walks
 * that class's FIFO alone: O(batch + classes) per admission, plus any
 * candidates the caller skips, instead of a pass over the whole queue.
 * The order is exactly that of one insertion-ordered deque holding
 * every queued job: its front is the smallest stamp, and its
 * same-class entries behind the front are the head class's FIFO.
 */

#ifndef CIFLOW_SERVE_ADMISSION_H
#define CIFLOW_SERVE_ADMISSION_H

#include <cstdint>
#include <deque>
#include <vector>

#include "serve/serving.h"

namespace ciflow::serve
{

/** Per-class FIFO admission queue with a global insertion order. */
class AdmissionQueue
{
  public:
    /** One queued job: when it became ready (its arrival, or the
     * re-queue time of a retry) and its arrival index. */
    struct Item
    {
        double ready = 0.0;
        std::uint32_t job = 0;
    };

    /** Empty the queue for a spec with `classes` job classes. */
    void
    reset(std::size_t classes)
    {
        fifo.assign(classes, {});
        stamp = 0;
        count = 0;
    }

    bool empty() const { return count == 0; }
    /** Jobs queued, all classes together. */
    std::size_t size() const { return count; }

    /** Queue `it` behind every job already queued. */
    void
    push(std::uint32_t klass, const Item &it)
    {
        fifo[klass].push_back({stamp++, it});
        ++count;
    }

    /** Class of the earliest-queued job; the queue must be non-empty. */
    std::uint32_t
    headClass() const
    {
        std::uint32_t best = 0;
        bool found = false;
        for (std::uint32_t k = 0; k < fifo.size(); ++k)
            if (!fifo[k].empty() &&
                (!found ||
                 fifo[k].front().stamp < fifo[best].front().stamp)) {
                best = k;
                found = true;
            }
        return best;
    }

    /** The earliest-queued job of class `klass` (the head when klass
     * is headClass()). */
    const Item &front(std::uint32_t klass) const
    {
        return fifo[klass].front().item;
    }

    /** Drop the front job of class `klass`. */
    void
    pop(std::uint32_t klass)
    {
        fifo[klass].pop_front();
        --count;
    }

    /**
     * Form and dequeue the batch led by the front job of `klass` (the
     * head): followers are the class's next queued jobs in order,
     * until the batch holds policy.targetBatch jobs or, with a
     * duration cap, its estimate (`leadSec` for the leader plus
     * `followSec` per follower) reaches policy.targetBatchSec. A
     * candidate for which skip(job) holds is passed over and keeps
     * its place. Writes the batch's job ids, leader first, to `ids`.
     */
    template <class Skip>
    void
    takeBatch(std::uint32_t klass, const BatchPolicy &policy,
              double leadSec, double followSec, Skip skip,
              std::vector<std::uint32_t> &ids)
    {
        std::deque<Entry> &q = fifo[klass];
        ids.assign(1, q.front().item.job);
        double estSec = leadSec;
        // Skipped entries slide to the front of the scanned prefix,
        // in order; the taken ones behind them are erased.
        std::size_t kept = 0, i = 1;
        for (; i < q.size(); ++i) {
            if (ids.size() >= policy.targetBatch)
                break;
            if (policy.targetBatchSec > 0.0 &&
                estSec >= policy.targetBatchSec)
                break;
            if (skip(q[i].item.job)) {
                q[kept++] = q[i];
                continue;
            }
            ids.push_back(q[i].item.job);
            estSec += followSec;
        }
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(kept),
                q.begin() + static_cast<std::ptrdiff_t>(i));
        count -= i - kept;
    }

    /** Hand every queued job to f in queue order, emptying the queue. */
    template <class F>
    void
    drain(F f)
    {
        while (count != 0) {
            const std::uint32_t k = headClass();
            const Item it = front(k);
            pop(k);
            f(it);
        }
    }

  private:
    /** A queued job and its global insertion number. */
    struct Entry
    {
        std::uint64_t stamp;
        Item item;
    };

    std::vector<std::deque<Entry>> fifo;
    std::uint64_t stamp = 0;
    std::size_t count = 0;
};

} // namespace ciflow::serve

#endif // CIFLOW_SERVE_ADMISSION_H
