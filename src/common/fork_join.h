#ifndef SPITZ_COMMON_FORK_JOIN_H_
#define SPITZ_COMMON_FORK_JOIN_H_

#include <cstddef>
#include <functional>

namespace spitz {

// Fork-join over an index range, for the independent hashing of bulk
// load and recovery (DESIGN.md section 6). Runs fn(begin, end) over
// [0, n) in pieces of `grain` indices (the last one shorter), on the
// calling thread plus up to std::thread::hardware_concurrency() - 1
// helper threads started for this call, and returns once every piece has
// run. A range of one piece runs inline and starts no thread.
//
// Pieces run concurrently and in no fixed order, so fn may write only to
// slots of its own indices, into storage the caller allocated; whatever
// must happen in order is done by the caller afterwards. fn must not
// allocate anything that outlives the call: glibc keeps memory a helper
// thread allocated in that thread's arena, where the rest of the process
// cannot reuse it.
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t begin, size_t end)>& fn);

// Runs `beside` on a thread started for this call while the calling
// thread runs `fn`, and returns once both have; when no thread can be
// started, runs `beside` after `fn`. For a step that needs nothing from
// `fn` and shares no data with it (a bulk load's key history beside its
// index build). `beside` must not allocate anything that outlives the
// call, as for ParallelFor.
void RunBeside(const std::function<void()>& beside,
               const std::function<void()>& fn);

}  // namespace spitz

#endif  // SPITZ_COMMON_FORK_JOIN_H_
