#include "src/castanet/entity.hpp"

#include "src/core/error.hpp"

namespace castanet::cosim {

CosimEntity::CosimEntity(rtl::Simulator& hdl, MessageChannel& from_net,
                         MessageChannel& to_net,
                         ConservativeSync::Params sync_params)
    : hdl_(hdl), from_net_(from_net), to_net_(to_net), sync_(sync_params) {}

void CosimEntity::register_input(MessageType type, std::uint64_t delta_cycles,
                                 ApplyFn apply) {
  sync_.declare_input(type, delta_cycles);
  apply_[type] = std::move(apply);
}

void CosimEntity::send_cell_response(MessageType type, const atm::Cell& c) {
  to_net_.send(make_cell_message(type, hdl_.now(), c));
  ++responses_;
}

void CosimEntity::send_word_response(MessageType type,
                                     std::vector<std::uint64_t> words) {
  to_net_.send(make_word_message(type, hdl_.now(), std::move(words)));
  ++responses_;
}

void CosimEntity::pump() {
  while (auto m = from_net_.receive()) {
    sync_.push(*m);
  }
}

void CosimEntity::advance_hdl_to(SimTime target) {
  if (target < hdl_.now()) return;
  // Deliver everything with ts <= target (window is exclusive at target+1ps
  // granularity; the orchestrator passes target = window - 1ps).
  // Every message taken here is due by `target`, so the run below delivers
  // all of them.  Entries are only appended before it and only cleared
  // after it returns: if an apply throws, the callbacks still pending keep
  // valid indices.
  std::size_t i = parked_.size();
  sync_.take_deliverable(target + SimTime::from_ps(1), parked_);
  for (; i < parked_.size(); ++i) {
    const TimedMessage& m = parked_[i];
    auto it = apply_.find(m.type);
    require(it != apply_.end(), "CosimEntity: no apply fn for message type");
    const SimTime delay =
        m.timestamp > hdl_.now() ? m.timestamp - hdl_.now() : SimTime::zero();
    hdl_.schedule_callback(delay, [fn = &it->second, this, i] {
      (*fn)(parked_[i]);
    });
  }
  hdl_.run_until(target);
  parked_.clear();
  sync_.note_hdl_time(hdl_.now());
}

}  // namespace castanet::cosim
