/**
 * @file
 * A minimal fixed-size worker pool for fan-out over sweep grids.
 *
 * Tasks are arbitrary callables submitted through submit(), which
 * returns a std::future for the callable's result. Work is executed
 * FIFO; result *ordering* is the caller's job (parallelMapOrdered in
 * sim/sweep.h collects futures in input order, which is what makes
 * parallel sweeps deterministic). Exceptions thrown by a task are
 * captured in its future and rethrown at get().
 *
 * A one-thread pool runs inline: it starts no worker, and submit()
 * runs the task on the caller's thread and returns a ready future.
 * Handing each task to a single worker and back would buy no
 * parallelism, and running on the caller also lets a task fan out on
 * its own one-thread pool without deadlocking.
 */

#ifndef REGATE_COMMON_THREAD_POOL_H
#define REGATE_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace regate {

class ThreadPool
{
  public:
    /**
     * @param threads  Worker count; 0 picks the REGATE_THREADS
     *                 environment variable if set, otherwise the
     *                 hardware concurrency (min 1).
     */
    explicit ThreadPool(unsigned threads = 0)
        : threads_(threads > 0 ? threads : defaultThreadCount())
    {
        if (threads_ == 1)
            return;  // Inline: submit() runs tasks on the caller.
        workers_.reserve(threads_);
        for (unsigned i = 0; i < threads_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p fn; the returned future yields its result. A
     * one-thread pool runs @p fn before returning.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        if (workers_.empty()) {
            std::packaged_task<R()> task(std::forward<F>(fn));
            std::future<R> fut = task.get_future();
            task();
            return fut;
        }
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.emplace_back([task] { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    unsigned threadCount() const { return threads_; }

    /** Worker count an argument of 0 resolves to. */
    static unsigned
    defaultThreadCount()
    {
        if (const char *env = std::getenv("REGATE_THREADS")) {
            int n = std::atoi(env);
            if (n > 0)
                return static_cast<unsigned>(n);
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? hw : 1;
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
                if (stop_ && queue_.empty())
                    return;
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            task();
        }
    }

    unsigned threads_;
    std::vector<std::thread> workers_;  ///< Empty when threads_ == 1.
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Apply @p fn to every item, running tasks on @p pool, and return the
 * results in input order. Deterministic regardless of worker count or
 * scheduling; the exception of the first failing item (in input
 * order) propagates to the caller, once every task has finished — so
 * no task is still running when the caller handles the error (for
 * example by exiting, which destroys the statics tasks use). Each
 * task owns copies of @p fn and its item.
 *
 * Do not call this from a task already running on a multi-thread
 * @p pool: the outer task would block on futures that need the same
 * workers (give nested fan-outs their own pool instead). A one-thread
 * pool runs every task inline, so nesting on it is safe.
 */
template <typename T, typename Fn>
auto
parallelMapOrdered(ThreadPool &pool, const std::vector<T> &items, Fn fn)
    -> std::vector<decltype(fn(items.front()))>
{
    using R = decltype(fn(items.front()));
    std::vector<std::future<R>> futures;
    futures.reserve(items.size());
    for (const T &item : items) {
        futures.push_back(
            pool.submit([fn, item] { return fn(item); }));
    }
    for (auto &fut : futures)
        fut.wait();
    std::vector<R> out;
    out.reserve(items.size());
    for (auto &fut : futures)
        out.push_back(fut.get());
    return out;
}

}  // namespace regate

#endif  // REGATE_COMMON_THREAD_POOL_H
