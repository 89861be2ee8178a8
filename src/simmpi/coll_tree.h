// Tree/chunk arithmetic of the collective schedules (coll_sched.cc) and
// the selection table (coll_algos.cc).
#pragma once

#include <vector>

#include "support/common.h"

namespace mpiwasm::simmpi::coll {

/// Relative rank helpers for trees rooted at `root`.
inline int rel(int r, int root, int size) { return (r - root + size) % size; }
inline int unrel(int r, int root, int size) { return (r + root) % size; }

inline bool is_pof2(int n) { return n > 0 && (n & (n - 1)) == 0; }

inline int floor_pof2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// Splits `count` elements into `parts` chunks (first count%parts chunks
/// get one extra element); fills element counts and offsets.
inline void chunk_counts(int count, int parts, std::vector<int>* cnts,
                         std::vector<int>* offs) {
  cnts->assign(size_t(parts), 0);
  offs->assign(size_t(parts), 0);
  int base = count / parts, extra = count % parts, off = 0;
  for (int i = 0; i < parts; ++i) {
    (*cnts)[i] = base + (i < extra ? 1 : 0);
    (*offs)[i] = off;
    off += (*cnts)[i];
  }
}

}  // namespace mpiwasm::simmpi::coll
