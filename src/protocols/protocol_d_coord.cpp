#include "protocols/protocol_d_coord.h"

#include <algorithm>

namespace dowork {

namespace {
constexpr std::uint64_t kCollectAt = 2;   // coordinator finalizes at R + 2
constexpr std::uint64_t kFallbackAt = 5;  // missing final view => fallback at R + 5
constexpr std::uint64_t kResumeAt = 8;    // next work phase at R + 8
}  // namespace

ProtocolDCoordProcess::ProtocolDCoordProcess(const DoAllConfig& cfg, int self)
    : t_(cfg.t), self_(self), core_(cfg, self, nullptr), seen_(cfg.t) {
  heard_ = DynBitset(static_cast<std::size_t>(t_));
}

int ProtocolDCoordProcess::coordinator() const {
  const std::size_t first = core_.t_alive().find_next(0);
  return first < core_.t_alive().size() ? static_cast<int>(first) : 0;
}

// The coordinator variant runs at per-table shapes, so the audience sets are
// built per send (Protocol D proper caches its audience across iterations).
Action ProtocolDCoordProcess::send_view(const DynBitset& who, bool done) const {
  Action a;
  DynBitset bits = who;
  if (bits.test(static_cast<std::size_t>(self_))) bits.reset(static_cast<std::size_t>(self_));
  RecipientSet to = make_recipient_bits(std::move(bits));
  if (!to.empty())
    a.sends.push_back(Outgoing{std::move(to), MsgKind::kAgreement,
                               std::make_shared<AgreeMsg>(core_.phase(), sn_, tn_, done)});
  return a;
}

void ProtocolDCoordProcess::clear_seen() {
  seen_.clear();
  retained_.clear();
}

Action ProtocolDCoordProcess::finish_phase(const Round& now) {
  Action a;
  switch (core_.finish(sn_, tn_, now)) {
    case DPhaseCore::Outcome::kTerminate:
      terminated_ = true;
      a.terminate = true;
      break;
    case DPhaseCore::Outcome::kRevert:
      phase_kind_ = PhaseKind::kRevertA;  // Protocol A takes over next round
      break;
    case DPhaseCore::Outcome::kContinue:
      phase_kind_ = PhaseKind::kWork;
      clear_seen();
      core_.work_round(now, a);  // the next work phase starts this same round
      break;
  }
  return a;
}

Action ProtocolDCoordProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (terminated_) {
    Action a;
    a.terminate = true;
    return a;
  }
  if (phase_kind_ == PhaseKind::kRevertA) return core_.revert_round(ctx, inbox);

  for (const Msg& msg : inbox) {
    if (const auto* m = msg.as<AgreeMsg>(); m != nullptr && m->phase == core_.phase()) {
      seen_.stash(msg.from, m);
      retained_.push_back(msg.payload());
    }
  }

  if (phase_kind_ == PhaseKind::kWork) {
    if (Action a; core_.work_round(ctx.round, a)) return a;
    // Agreement entry at R, the round the work phase ends.
    agr_entry_ = ctx.round;
    sn_ = core_.s();
    tn_ = DynBitset(static_cast<std::size_t>(t_));
    tn_.set(static_cast<std::size_t>(self_));
    resume_at_ = agr_entry_ + Round{kResumeAt};
    responded_ = false;
    iter_ = 0;
    if (coordinator() == self_) {
      phase_kind_ = PhaseKind::kAgrCoord;
      return Action::none();  // collect reports for the next two rounds
    }
    phase_kind_ = PhaseKind::kAgrAwait;
    Action a;
    auto payload = std::make_shared<AgreeMsg>(core_.phase(), sn_, tn_, false);
    a.sends.push_back(Outgoing{coordinator(), MsgKind::kAgreement, payload});
    return a;
  }

  if (phase_kind_ == PhaseKind::kAgrCoord) {
    if (ctx.round < agr_entry_ + Round{kCollectAt}) return Action::none();
    // Finalize: merge every report seen and broadcast the final view.
    merge_views(seen_, sn_, tn_, heard_);
    clear_seen();
    phase_kind_ = PhaseKind::kAgrListen;  // wait out the fallback window
    responded_ = true;                    // the final broadcast already went out
    return send_view(core_.t_alive(), true);
  }

  if (phase_kind_ == PhaseKind::kAgrAwait) {
    // Adopt the final view once it arrives.  Until then the merge only
    // touches sn_/tn_, which the fallback resets before using them.
    if (merge_views(seen_, sn_, tn_, heard_)) {
      clear_seen();
      phase_kind_ = PhaseKind::kAgrListen;
      return Action::none();
    }
    if (ctx.round >= agr_entry_ + Round{kFallbackAt}) {
      // No final view: the coordinator must have died.  Fall back to the
      // broadcast agreement (grace 2 so listening adopters can answer).
      phase_kind_ = PhaseKind::kAgrFallback;
      u_ = core_.t_alive();
      sn_ = core_.s();
      tn_ = DynBitset(static_cast<std::size_t>(t_));
      tn_.set(static_cast<std::size_t>(self_));
      iter_ = 0;
      clear_seen();
      return send_view(core_.t_alive(), false);
    }
    return Action::none();
  }

  if (phase_kind_ == PhaseKind::kAgrListen) {
    // An adopter that hears fallback traffic re-broadcasts the final view;
    // the fallback's done-adoption then re-unifies everyone.
    bool fallback_heard = false;
    for (const AgreeMsg* msg : seen_.by_sender())
      if (msg && !msg->done) fallback_heard = true;
    clear_seen();
    if (fallback_heard && !responded_) {
      responded_ = true;
      return send_view(core_.t_alive(), true);
    }
    if (ctx.round >= resume_at_) return finish_phase(ctx.round);
    return Action::none();
  }

  // kAgrFallback: pipelined broadcast agreement with grace 2.
  const AgreeMsg* adopt = merge_views(seen_, sn_, tn_, heard_);
  clear_seen();
  const bool removed_any = !adopt && iter_ >= 2 && drop_silent(u_, heard_, self_);
  const bool stable = !removed_any && iter_ >= 2;
  ++iter_;
  if (adopt || stable) {
    Round finish_next = ctx.round + Round{1};
    resume_at_ = resume_at_ > finish_next ? resume_at_ : finish_next;
    responded_ = true;
    phase_kind_ = PhaseKind::kAgrListen;  // inert wait until resume_at_
    return send_view(u_, true);
  }
  return send_view(u_, false);
}

Round ProtocolDCoordProcess::next_wake(const Round& now) const {
  if (terminated_) return never_round();
  switch (phase_kind_) {
    case PhaseKind::kRevertA:
      return core_.revert_wake(now);
    case PhaseKind::kWork:
      return core_.work_wake(now);
    case PhaseKind::kAgrCoord: {
      Round due = agr_entry_ + Round{kCollectAt};
      return due > now ? due : now;
    }
    case PhaseKind::kAgrAwait: {
      Round due = agr_entry_ + Round{kFallbackAt};
      return due > now ? due : now;
    }
    case PhaseKind::kAgrListen:
      return resume_at_ > now ? resume_at_ : now;
    case PhaseKind::kAgrFallback:
      return now;
  }
  return never_round();
}

std::string ProtocolDCoordProcess::describe() const {
  return "ProtocolDCoord[" + std::to_string(self_) + ",phase=" + std::to_string(core_.phase()) +
         "]";
}

}  // namespace dowork
