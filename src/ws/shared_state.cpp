#include "ws/shared_state.hpp"

namespace upcws::ws {

SharedState::SharedState(int nranks_, std::size_t node_bytes_)
    : nranks(nranks_),
      node_bytes(node_bytes_),
      stacks(nranks_),
      slots(nranks_) {
  for (int r = 0; r < nranks; ++r) stacks[r].init(node_bytes, r);
  cb_lock.owner = 0;
}

}  // namespace upcws::ws
