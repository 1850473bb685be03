#include "protocols/protocol_d.h"

#include <algorithm>

namespace dowork {

const AgreeMsg* AgreeRoundFold::View::adoptable(int self) const {
  std::size_t i = done.find_next(0);
  if (i == static_cast<std::size_t>(self)) i = done.find_next(i + 1);
  return i < done.size() ? by_sender[i] : nullptr;
}

bool AgreeRoundFold::has_phase(const Round& round, const std::vector<DeliveryRecord>& ledger,
                               int phase) {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_of(round, ledger, phase) != nullptr;
}

const AgreeRoundFold::View* AgreeRoundFold::view(const Round& round,
                                                 const std::vector<DeliveryRecord>& ledger,
                                                 int self, int phase) {
  std::lock_guard<std::mutex> lock(mu_);
  const Phase* ph = phase_of(round, ledger, phase);
  if (ph == nullptr || ph->duplicate || !ph->reached_by_all.test(static_cast<std::size_t>(self)))
    return nullptr;
  return &ph->view;
}

AgreeRoundFold::Phase* AgreeRoundFold::phase_of(const Round& round,
                                                const std::vector<DeliveryRecord>& ledger,
                                                int phase) {
  if (ledger_ != &ledger || round_ != round) {
    // First request of the round: group the agreement records by phase,
    // fold each phase's View, and intersect its delivered sets (sender
    // included) into the mask of recipients that hear the whole phase.
    ledger_ = &ledger;
    round_ = round;
    phases_.clear();
    const std::size_t t = static_cast<std::size_t>(t_);
    DynBitset reached(t);
    for (const DeliveryRecord& rec : ledger) {
      const auto* m = detail::payload_as<AgreeMsg>(rec.payload.get());
      if (m == nullptr) continue;
      auto ph = std::find_if(phases_.begin(), phases_.end(),
                             [&](const Phase& p) { return p.phase == m->phase; });
      if (ph == phases_.end()) {
        ph = phases_.emplace(phases_.end());
        ph->phase = m->phase;
        ph->reached_by_all = DynBitset(t, true);
        ph->view.by_sender.assign(t, nullptr);
        ph->view.senders = DynBitset(t);
        ph->view.done = DynBitset(t);
        ph->view.t_or = DynBitset(t);
      }
      View& v = ph->view;
      const std::size_t from = static_cast<std::size_t>(rec.from);
      if (v.senders.test(from)) ph->duplicate = true;
      v.by_sender[from] = m;
      v.senders.set(from);
      if (m->done) v.done.set(from);
      const SView& s = m->s_left;
      if (!v.s_and.base) {
        v.s_and = s;
      } else if (s != *ph->last_s) {
        if (!ph->s_copy) {
          ph->s_copy = std::make_shared<DynBitset>(v.s_and.materialize());
          ph->anded = v.s_and.base.get();
          v.s_and = SView(ph->s_copy);
        }
        if (s.base.get() != ph->anded) {
          *ph->s_copy &= *s.base;
          ph->anded = s.base.get();
        }
        ph->s_copy->reset_range(s.lo, s.hi);
      }
      ph->last_s = &s;
      v.t_or |= m->t_alive;
      reached.reset_all();
      rec.to.mark_prefix(reached, rec.cut);
      reached.set(from);
      ph->reached_by_all &= reached;
    }
  }
  for (Phase& ph : phases_)
    if (ph.phase == phase) return &ph;
  return nullptr;
}

SharedBits all_outstanding(const DoAllConfig& cfg) {
  cfg.validate();
  return std::make_shared<const DynBitset>(static_cast<std::size_t>(cfg.n), true);
}

std::int64_t work_slice(const DynBitset& s, const DynBitset& alive, int self,
                        std::vector<std::int64_t>& slice) {
  // The slice is located by rank directly in the bitset (select +
  // find_next) instead of materializing all |S| outstanding units: every
  // process re-derives the partition each phase, which made the O(n)
  // flattening the second-largest cost of the t = 1024 scale row.
  const std::int64_t left = static_cast<std::int64_t>(s.count());
  const std::uint64_t members = std::max<std::uint64_t>(1, alive.count());
  const std::int64_t w = ceil_div(left, static_cast<std::int64_t>(members));
  slice.clear();
  if (alive.test(static_cast<std::size_t>(self))) {
    const std::int64_t rank =
        static_cast<std::int64_t>(alive.count_prefix(static_cast<std::size_t>(self)));
    const std::int64_t from = rank * w;
    const std::int64_t to = std::min<std::int64_t>(from + w, left);
    if (from < to) {
      std::size_t i = s.select(static_cast<std::uint64_t>(from));
      for (std::int64_t k = from; k < to; ++k, i = s.find_next(i + 1))
        slice.push_back(static_cast<std::int64_t>(i) + 1);
    }
  }
  return w;
}

const AgreeMsg* merge_views(const SeenViews& seen, SView& sn, DynBitset& tn, DynBitset& heard) {
  const std::vector<const AgreeMsg*>& by_sender = seen.by_sender();
  for (const AgreeMsg* msg : by_sender) {
    if (msg && msg->done) {
      sn = msg->s_left;
      tn = msg->t_alive;
      return msg;
    }
  }
  heard.reset_all();
  std::shared_ptr<DynBitset> merged;  // sn's copy, made by the first view that is not sn
  for (std::size_t i = 0; i < by_sender.size(); ++i) {
    const AgreeMsg* msg = by_sender[i];
    if (!msg) continue;
    if (msg->s_left != sn) {
      if (!merged) merged = std::make_shared<DynBitset>(sn.materialize());
      msg->s_left.and_into(*merged);
    }
    tn |= msg->t_alive;
    heard.set(i);
  }
  if (merged) sn = SView(std::move(merged));
  return nullptr;
}

bool drop_silent(DynBitset& u, DynBitset& heard, int self) {
  heard.set(static_cast<std::size_t>(self));
  return u.retain(heard);
}

DPhaseCore::DPhaseCore(const DoAllConfig& cfg, int self, SharedBits initial_s)
    : t_(cfg.t), self_(self) {
  cfg.validate();
  s_ = initial_s ? std::move(initial_s) : all_outstanding(cfg);
  t_alive_ = DynBitset(static_cast<std::size_t>(t_), true);
}

bool DPhaseCore::work_round(const Round& now, Action& a) {
  if (!work_entered_) {
    work_entered_ = true;
    slice_pos_ = 0;
    work_end_ =
        now + Round{static_cast<std::uint64_t>(work_slice(*s_.base, t_alive_, self_, my_slice_))};
    // Line 8: S := S \ S' -- if we live to broadcast, the slice was performed.
    // The slice is a run of consecutive outstanding units, so S \ S' is the
    // shared base with the index range first..last cleared.
    if (!my_slice_.empty())
      s_ = SView(s_.base, static_cast<std::size_t>(my_slice_.front() - 1),
                 static_cast<std::size_t>(my_slice_.back()));
  }
  if (!(now < work_end_)) return false;
  if (slice_pos_ < my_slice_.size()) a.work = my_slice_[slice_pos_++];
  return true;
}

Round DPhaseCore::work_wake(const Round& now) const {
  if (!work_entered_ || slice_pos_ < my_slice_.size()) return now;
  return work_end_ > now ? work_end_ : now;
}

DPhaseCore::Outcome DPhaseCore::finish(SView s, const DynBitset& t, const Round& now) {
  const std::uint64_t old_alive = t_alive_.count();
  s_ = s.ranged() ? SView(std::make_shared<const DynBitset>(s.materialize())) : std::move(s);
  t_alive_ = t;
  const std::uint64_t new_alive = std::max<std::uint64_t>(1, t_alive_.count());
  const DynBitset& left = *s_.base;
  if (left.none() || !t_alive_.test(static_cast<std::size_t>(self_))) return Outcome::kTerminate;
  if (old_alive > 2 * new_alive) {
    // Figure 4 lines 11-13: more than half the processes died this phase;
    // hand the leftovers to Protocol A (work-optimal regardless of failure
    // pattern) rather than risking the adaptive-adversary lower bound.
    std::vector<std::int64_t> units;
    for (std::size_t i = left.find_next(0); i < left.size(); i = left.find_next(i + 1))
      units.push_back(static_cast<std::int64_t>(i) + 1);
    // Renumber the agreed survivors 0..|T|-1 so Protocol A's deadlines scale
    // with the survivor count (Theorem 4.1 case 2 applies Theorem 2.3 with
    // t/2 processes).
    rank_to_id_.clear();
    id_to_rank_.assign(static_cast<std::size_t>(t_), -1);
    for (int i = 0; i < t_; ++i) {
      if (t_alive_.test(static_cast<std::size_t>(i))) {
        id_to_rank_[static_cast<std::size_t>(i)] = static_cast<int>(rank_to_id_.size());
        rank_to_id_.push_back(i);
      }
    }
    DoAllConfig sub{static_cast<std::int64_t>(units.size()),
                    static_cast<int>(rank_to_id_.size())};
    revert_ = std::make_unique<ProtocolAProcess>(
        sub, id_to_rank_[static_cast<std::size_t>(self_)], now + Round{1}, std::move(units));
    return Outcome::kRevert;
  }
  ++phase_;
  work_entered_ = false;
  return Outcome::kContinue;
}

Action DPhaseCore::revert_round(const RoundContext& ctx, const InboxView& inbox) {
  std::vector<Envelope> translated;
  for (const Msg& msg : inbox) {
    if (msg.from < 0 || id_to_rank_[static_cast<std::size_t>(msg.from)] < 0)
      continue;  // stale pre-revert traffic
    translated.push_back(Envelope{id_to_rank_[static_cast<std::size_t>(msg.from)], self_,
                                  msg.kind, msg.sent_round(), msg.payload()});
  }
  Action a = revert_->on_round(ctx, translated);
  // The embedded Protocol A addresses rank-space ranges; map them back to
  // real ids (generally non-contiguous, so ranges become bit sets).
  for (Outgoing& o : a.sends) o.to = remap_recipients(o.to, rank_to_id_, t_);
  return a;
}

ProtocolDProcess::ProtocolDProcess(const DoAllConfig& cfg, int self,
                                   std::shared_ptr<AgreeRoundFold> fold, SharedBits initial_s)
    : t_(cfg.t),
      self_(self),
      core_(cfg, self, std::move(initial_s)),
      seen_(cfg.t),
      fold_(std::move(fold)) {
  heard_ = DynBitset(static_cast<std::size_t>(t_));
  grace_ = 0;  // phase 1 starts in lockstep: no grace iteration needed
}

void ProtocolDProcess::enter_agree_phase() {
  u_ = core_.t_alive();
  audience_.reset();  // u_ changed; the shared audience set is stale
  tn_ = DynBitset(static_cast<std::size_t>(t_));
  tn_.set(static_cast<std::size_t>(self_));
  sn_ = core_.s();
  iter_ = 0;
}

Action ProtocolDProcess::agree_broadcast(bool done) {
  Action a;
  if (!audience_) {
    DynBitset bits = u_;
    if (bits.test(static_cast<std::size_t>(self_))) bits.reset(static_cast<std::size_t>(self_));
    audience_ = make_recipient_bits(std::move(bits));
  }
  if (audience_->count > 0)
    a.sends.push_back(Outgoing{audience_, MsgKind::kAgreement,
                               std::make_shared<AgreeMsg>(core_.phase(), sn_, tn_, done)});
  return a;
}

void ProtocolDProcess::finish_agree(const Round& now) {
  switch (core_.finish(sn_, tn_, now)) {
    case DPhaseCore::Outcome::kTerminate:
      terminated_ = true;
      return;
    case DPhaseCore::Outcome::kRevert:
      phase_kind_ = PhaseKind::kRevertA;
      return;
    case DPhaseCore::Outcome::kContinue:
      grace_ = 1;  // later phases absorb the <=1 round skew from done-adoption
      phase_kind_ = PhaseKind::kWork;
      seen_.clear();
      early_retained_.clear();
      return;
  }
}

Action ProtocolDProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (terminated_) {
    Action a;
    a.terminate = true;
    return a;
  }
  if (phase_kind_ == PhaseKind::kRevertA) return core_.revert_round(ctx, inbox);

  // A round received in full folds from the run-shared summary instead of
  // walking the ledger; a work-phase recipient skips a ledger that holds no
  // broadcast of its phase.  Everything else stashes this phase's agreement
  // messages (they may arrive one round early when a peer finished the
  // previous agreement before us).  Early arrivals land while we are still
  // in the work phase and must outlive the recycled round ledger, so their
  // payloads are retained; agreement-round arrivals are consumed before this
  // call returns (see the seen_ comment in the header).
  const std::vector<DeliveryRecord>* ledger = fold_ ? inbox.ledger() : nullptr;
  const AgreeRoundFold::View* view = nullptr;
  if (ledger && phase_kind_ == PhaseKind::kAgree && early_retained_.empty())
    view = fold_->view(ctx.round, *ledger, self_, core_.phase());
  const bool skip_inbox =
      view != nullptr ||
      (ledger && phase_kind_ == PhaseKind::kWork && !fold_->has_phase(ctx.round, *ledger, core_.phase()));
  if (!skip_inbox) {
    for (const Msg& msg : inbox) {
      if (const auto* m = msg.as<AgreeMsg>(); m != nullptr && m->phase == core_.phase()) {
        seen_.stash(msg.from, m);
        if (phase_kind_ == PhaseKind::kWork) early_retained_.push_back(msg.payload());
      }
    }
  }

  if (phase_kind_ == PhaseKind::kWork) {
    if (Action a; core_.work_round(ctx.round, a)) return a;
    phase_kind_ = PhaseKind::kAgree;
    enter_agree_phase();
    return agree_broadcast(false);  // iteration-0 broadcast
  }

  // Agreement phase, receive-check for iteration iter_ (peers' iteration-k
  // broadcasts arrive one simulator round after they were sent).  Without
  // a shared view, merge_views folds the stashed messages the same way.
  const AgreeMsg* adopt = nullptr;
  if (view) {
    adopt = view->adoptable(self_);
    if (adopt) {
      sn_ = adopt->s_left;
      tn_ = adopt->t_alive;
    } else {
      // The own record aliasing sn_ proves sn_ & s_and == s_and.
      const AgreeMsg* own = view->by_sender[static_cast<std::size_t>(self_)];
      if (own != nullptr && own->s_left == sn_) {
        sn_ = view->s_and;
      } else if (view->s_and != sn_) {
        auto merged = std::make_shared<DynBitset>(sn_.materialize());
        view->s_and.and_into(*merged);
        sn_ = SView(std::move(merged));
      }
      tn_ |= view->t_or;
      heard_ = view->senders;
    }
  } else {
    adopt = merge_views(seen_, sn_, tn_, heard_);
  }
  bool removed_any = false;
  if (!adopt && iter_ >= grace_) {
    removed_any = drop_silent(u_, heard_, self_);
    if (removed_any) audience_.reset();  // u_ changed; rebuild on next broadcast
  }
  if (!view) {
    seen_.clear();
    early_retained_.clear();
  }
  const bool stable = !removed_any && iter_ >= grace_;
  ++iter_;

  if (adopt || stable) {
    Action a = agree_broadcast(true);  // line 20: final view, done = true
    finish_agree(ctx.round);
    if (terminated_) a.terminate = true;
    return a;
  }
  return agree_broadcast(false);
}

Round ProtocolDProcess::next_wake(const Round& now) const {
  if (terminated_) return never_round();
  switch (phase_kind_) {
    case PhaseKind::kRevertA:
      return core_.revert_wake(now);
    case PhaseKind::kWork:
      return core_.work_wake(now);
    case PhaseKind::kAgree:
      return now;
  }
  return never_round();
}

std::string ProtocolDProcess::describe() const {
  return "ProtocolD[" + std::to_string(self_) + ",phase=" + std::to_string(core_.phase()) + "]";
}

}  // namespace dowork
