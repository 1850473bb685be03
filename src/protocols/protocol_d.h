// Protocol D (paper Section 4): the time-optimal algorithm.
//
// Work is spread over all processes believed correct: the protocol
// alternates *work phases* (each process performs its ceil(|S|/|T|)-unit
// slice of the outstanding set S) with *agreement phases*, an early-stopping
// eventual-agreement exchange in which everyone repeatedly broadcasts its
// view (S = outstanding units, T = processes seen alive) until the alive set
// is stable for a round, or a finished peer's view can be adopted.  If more
// than half the processes thought correct at the start of a phase are
// discovered to have failed during it, the protocol reverts to Protocol A on
// whatever work remains (without that escape hatch an adaptive adversary can
// force Omega(n log f / log log f) work, per De Prisco-Mayer-Yung).
//
// Guarantees (Theorem 4.1, case 1): with f failures and no phase losing more
// than half its processes, work <= 2n, messages <= (4f+2)t^2, and everyone
// retires by round (f+1)n/t + 4f + 2.  Failure-free: n/t + 2 rounds and 2t^2
// messages.
//
// Shared with the coordinator variant (protocol_d_coord.h): everything but
// how the agreement messages travel.  DPhaseCore holds the work slice
// (Figure 4 lines 5-8), the phase-finish/revert decision (lines 9-13) and
// the rank<->id wrapper around the embedded Protocol A; SeenViews,
// merge_views and drop_silent are the naive view merge.  Each variant
// keeps its own agreement timing, grace iterations and per-phase resets.
// This file adds the broadcast agreement and AgreeRoundFold, its
// run-shared fast path.
//
// Model adaptation (see DESIGN.md): the paper's agreement loop sends and
// receives within one round; our simulator delivers at the next round, so
// the loop is pipelined -- the receive-check for iteration k inspects the
// iteration-k broadcasts, which land one round later.  Later phases allow
// one grace iteration before declaring silent processes faulty, absorbing
// the <=1 round of skew left by done-adoption (the paper's "grace round").
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/work.h"
#include "protocols/protocol_a.h"
#include "sim/process.h"
#include "util/bitset.h"

namespace dowork {

// An n-bit set as an immutable object shared by reference.
using SharedBits = std::shared_ptr<const DynBitset>;

// An outstanding-unit set S (unit u -> bit u-1) as a shared immutable base
// with the index range [lo, hi) cleared.  After one agreement iteration
// every survivor holds the same S, so the processes, their broadcasts and
// the round fold alias one n-bit object instead of each holding a copy.
// Within a phase's work a process's S differs from the agreed S only by its
// slice, a run of consecutive outstanding units, so it keeps the agreed S
// as its base and records the slice as the range: every process of a run
// starts from one all-ones base, and iteration 0 of each agreement carries
// t ranges over one base.  A holder that needs any other set builds a new
// base and repoints (the round fold, merge_views, DPhaseCore::finish).
struct SView {
  SView() = default;
  SView(SharedBits b) : base(std::move(b)) {}  // NOLINT: implicit by design
  SView(SharedBits b, std::size_t l, std::size_t h)
      : base(std::move(b)), lo(l < h ? l : 0), hi(l < h ? h : 0) {}

  bool ranged() const { return lo < hi; }
  std::size_t size() const { return base->size(); }
  // Word i of the set: the base's word with the range cleared.
  std::uint64_t word(std::size_t i) const {
    return base->word(i) & ~DynBitset::range_mask(i, lo, hi);
  }
  // The set as a bitset of its own.
  DynBitset materialize() const {
    DynBitset b = *base;
    b.reset_range(lo, hi);
    return b;
  }
  // dst &= the set (equal sizes): AND the base, then clear the range.
  void and_into(DynBitset& dst) const {
    dst &= *base;
    dst.reset_range(lo, hi);
  }

  // Identity, not contents: the same base object and the same range.  Two
  // views on one base with different ranges are different sets.
  friend bool operator==(const SView&, const SView&) = default;

  SharedBits base;  // never null once set
  std::size_t lo = 0, hi = 0;  // the cleared range; [0, 0) when none
};

// The all-outstanding S of a run (cfg.n bits, all set): the initial S the
// run's processes share.
SharedBits all_outstanding(const DoAllConfig& cfg);

// Views are word-packed (util/bitset.h): an agreement iteration merges up
// to t of these (once per round through a shared fold, per recipient
// without one), so the packing keeps the merges cheap at scale.  s_left
// aliases the sender's current S; t_alive (t bits) is a copy.
struct AgreeMsg final : Payload {
  int phase;          // work/agreement phase number, 1-based
  SView s_left;       // outstanding units, indexed unit-1; base never null
  DynBitset t_alive;  // processes believed correct
  bool done;
  AgreeMsg(int ph, SView s, DynBitset t, bool d)
      : phase(ph), s_left(std::move(s)), t_alive(std::move(t)), done(d) {}
};

// Figure 4 line 5: process `self`'s slice of the outstanding units `s`
// (unit u -> s[u-1]) among the processes `alive`.  Each member of `alive`
// takes ceil(|S|/|T|) consecutive outstanding units by its rank in `alive`
// (the last ranks may get fewer or none); a process outside `alive` gets
// none.  Fills `slice` and returns the slice width, ceil(|S|/max(1,|T|)).
std::int64_t work_slice(const DynBitset& s, const DynBitset& alive, int self,
                        std::vector<std::int64_t>& slice);

// One agreement iteration's messages by sender for the naive merge, as
// raw pointers whose payloads the caller keeps alive.  The t-entry table is
// allocated on the first stash and released by clear(): a process that
// merges through AgreeRoundFold never holds one (a table per process would
// be O(t^2) pointers).  A later message from the same sender replaces the
// earlier one, whatever order the messages arrive in.
class SeenViews {
 public:
  explicit SeenViews(int t) : t_(t) {}

  void stash(int from, const AgreeMsg* m) {
    if (by_sender_.empty()) by_sender_.assign(static_cast<std::size_t>(t_), nullptr);
    by_sender_[static_cast<std::size_t>(from)] = m;
  }
  // Indexed by sender (null = silent); empty when nothing was stashed.
  const std::vector<const AgreeMsg*>& by_sender() const { return by_sender_; }
  void clear() { std::vector<const AgreeMsg*>().swap(by_sender_); }

 private:
  int t_;
  std::vector<const AgreeMsg*> by_sender_;
};

// The naive merge of one agreement iteration, for inboxes without an
// AgreeRoundFold View.  If a sender's view is done, adopts the lowest-id
// one into `sn`/`tn` and returns it.  Otherwise ANDs every s_left into `sn`
// (into a fresh base, made only if some s_left is not the view `sn` --
// same base and same range), ORs every t_alive into `tn`, sets `heard` to
// the senders and returns null.
const AgreeMsg* merge_views(const SeenViews& seen, SView& sn, DynBitset& tn, DynBitset& heard);

// After the grace iterations: adds `self` to `heard` and drops from `u`
// every process outside it (silent => crashed); whether any was dropped.
bool drop_silent(DynBitset& u, DynBitset& heard, int self);

// The phase skeleton of both Protocol D variants: work phases, the decision
// that ends each agreement, and the embedded Protocol A after a revert.
class DPhaseCore {
 public:
  enum class Outcome { kContinue, kRevert, kTerminate };

  // `initial_s` is the all-outstanding S the run's processes share; null
  // allocates a private one.
  DPhaseCore(const DoAllConfig& cfg, int self, SharedBits initial_s);

  int phase() const { return phase_; }
  // Outstanding units (unit u -> bit u-1), shared with views that alias
  // it.
  const SView& s() const { return s_; }
  // |S|.  While S carries this process's slice as its range, every unit
  // of the range that the base holds is a slice unit, so the range costs no
  // word scan.
  std::uint64_t left() const {
    return s_.base->count() - (s_.ranged() ? my_slice_.size() : 0);
  }
  const DynBitset& t_alive() const { return t_alive_; }

  // A work-phase round at `now`; the phase's first round takes the slice
  // (lines 5-8).  Everyone spends exactly the slice width in rounds in the
  // phase (line 7) so the agreement phases stay aligned: while they last,
  // returns true with the next slice unit, if any, in `a`; then false.
  // Dropping the slice from S records it as S's cleared range: the base
  // stays the phase's agreed S, shared by every process.
  bool work_round(const Round& now, Action& a);
  Round work_wake(const Round& now) const;

  // Lines 9-13 on the agreed view (S, T) at round `now`: kTerminate when no
  // work is left or this process is not in T; kRevert when more than half
  // the phase's processes were lost (Protocol A takes the leftovers from
  // round now+1); otherwise kContinue into the next phase's work.  A view
  // that still carries a range (no merge replaced this process's own S)
  // becomes a base of its own here, so every slice is taken from a base.
  Outcome finish(SView s, const DynBitset& t, const Round& now);

  // A round after kRevert: the embedded Protocol A, run on rank-in-T ids.
  Action revert_round(const RoundContext& ctx, const InboxView& inbox);
  Round revert_wake(const Round& now) const { return revert_->next_wake(now); }

 private:
  int t_;
  int self_;
  int phase_ = 1;
  SView s_;  // unranged except between a work phase's start and finish
  DynBitset t_alive_;

  std::vector<std::int64_t> my_slice_;
  std::size_t slice_pos_ = 0;
  Round work_end_;  // round at which the agreement phase starts
  bool work_entered_ = false;

  // The paper's case-2 bounds assume Protocol A runs over the surviving
  // processes only, so the embedded instance uses rank-in-T ids; the
  // wrapper translates between ranks and real process ids on the wire.
  std::unique_ptr<ProtocolAProcess> revert_;
  std::vector<int> rank_to_id_;
  std::vector<int> id_to_rank_;  // -1 for processes outside the agreed T
};

// Run-shared summary of one round's agreement broadcasts.  Every recipient
// of an agreement round folds (nearly) the same broadcast set into its views,
// so walking the ledger per recipient costs Theta(t^2) record visits and
// view merges per round.  On the round's first request the fold walks the
// ledger (InboxView::ledger()) once, grouping AgreeMsg records by phase and
// keeping, per phase, the mask of recipients every record of the phase
// reaches (AND over records of delivered prefix + {sender}) and the phase's
// View.  A recipient in the mask gets that View; a recipient some broadcast
// missed (a crash-cut prefix, an audience that excludes it) gets none.
//
// Bit-identical to the naive merge: a View includes the recipient's own
// broadcast, which the recipient never hears.  A D process in kAgree
// broadcast its sn/tn last round and has not touched them since (a done
// broadcast ends the phase, so the own record is never done either), so
// when the own record's s_left is the recipient's sn_ object, s_and is a
// subset of sn_ and the recipient takes s_and by pointer; OR is idempotent,
// so the own t_alive changes no bit of tn.  "Is" means the same view: the
// same base object and the same range -- iteration 0's records share one
// base, and only the range tells them apart.  A recipient whose own record
// is missing (its audience was empty, so it sent none) or holds another
// view ANDs s_and into a copy of its sn_ instead.  A phase where some sender
// broadcast twice has no View.  Without a View the process merges naively,
// as it does with early arrivals retained, after reverting to A, and on
// envelope-mode or network-path inboxes.
//
// Sharing: s_and starts as the phase's first s_left view and becomes a
// private base only when a record brings a different view; a record whose
// s_left is the previous record's view is skipped.  The private base ANDs
// in each record's base when it differs from the last one ANDed and clears
// each record's range, so iteration 0 -- t ranges over one base -- costs
// one n-bit copy plus the ranges' words.  Once every sender aliases one S
// -- every iteration after the first of an agreement phase -- the senders,
// the View and every in-mask recipient hold that one view, and a round
// allocates no n-bit set.
//
// Threading: requests are mutex-guarded and order-independent, so one fold
// serves the serial simulator, RoundPool shards and live worker threads.  A
// View lives until the first request of a later round, which every
// executor's round barrier orders after the current round's requests.
class AgreeRoundFold {
 public:
  // The fold of one phase's broadcasts.
  struct View {
    // The lowest done sender's message other than `self`'s, or null.
    const AgreeMsg* adoptable(int self) const;

    std::vector<const AgreeMsg*> by_sender;  // null = no broadcast
    DynBitset senders;  // t bits: the entries present
    DynBitset done;     // t bits: those whose broadcast had done set
    SView s_and;        // n bits: AND of their s_left
    DynBitset t_or;     // t bits: OR of their t_alive
  };

  explicit AgreeRoundFold(const DoAllConfig& cfg) : t_(cfg.t) {}

  // Whether `ledger`, the ledger of `round`, holds an AgreeMsg of `phase`.
  bool has_phase(const Round& round, const std::vector<DeliveryRecord>& ledger, int phase);
  // The View of `phase`'s broadcasts in `ledger` when recipient `self`
  // hears every one of them but its own; null otherwise, and when a sender
  // broadcast twice in the phase.
  const View* view(const Round& round, const std::vector<DeliveryRecord>& ledger, int self,
                   int phase);

 private:
  struct Phase {
    int phase = 0;
    bool duplicate = false;
    DynBitset reached_by_all;  // recipients that hear every other record
    View view;
    std::shared_ptr<DynBitset> s_copy;  // view.s_and's base once it is private
    const DynBitset* anded = nullptr;   // the base last ANDed into s_copy
    const SView* last_s = nullptr;      // the previous record's s_left
  };

  // The entry of `phase` in `round`'s summary (null if the round has no
  // broadcast of it), summarizing the round first if it is new.  Called
  // with mu_ held; entries are only added while summarizing, so a pointer
  // lasts until the next round is summarized.
  Phase* phase_of(const Round& round, const std::vector<DeliveryRecord>& ledger, int phase);

  int t_;
  std::mutex mu_;  // guards the round summary below
  const std::vector<DeliveryRecord>* ledger_ = nullptr;  // summarized round
  Round round_;
  std::vector<Phase> phases_;
};

class ProtocolDProcess final : public IProcess {
 public:
  // `initial_s`: the run's shared all-outstanding S, as for DPhaseCore.
  ProtocolDProcess(const DoAllConfig& cfg, int self,
                   std::shared_ptr<AgreeRoundFold> fold = nullptr,
                   SharedBits initial_s = nullptr);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::string describe() const override;

  int phases_completed() const { return core_.phase() - 1; }
  bool reverted_to_a() const { return phase_kind_ == PhaseKind::kRevertA; }

  // Observability accessor (process.h): units outside the outstanding set S
  // are exactly the ones this process knows done (performed by itself or
  // learned via agreement views).  After a revert, S is frozen at the
  // revert-time value — the embedded Protocol A instance works on virtual
  // ids, so its extra knowledge is not translated back.
  std::int64_t known_done_units() const override {
    return static_cast<std::int64_t>(core_.s().size() - core_.left());
  }

 private:
  enum class PhaseKind { kWork, kAgree, kRevertA };

  void enter_agree_phase();
  Action agree_broadcast(bool done);
  void finish_agree(const Round& now);

  int t_;
  int self_;
  DPhaseCore core_;
  PhaseKind phase_kind_ = PhaseKind::kWork;
  bool terminated_ = false;

  // Agreement-phase state (pipelined; see header comment).
  DynBitset u_;   // not yet known faulty this phase
  DynBitset tn_;  // T being accumulated
  // S being intersected, aliased from where it was built: this phase's
  // S (DPhaseCore::s(), the agreed base minus this process's slice), then
  // the fold's s_and, an adopted view or a merge's result.
  SView sn_;
  // The broadcast audience (u_ minus self) as the shared immutable set the
  // ledger records alias (sim/message.h).  Rebuilt lazily whenever u_
  // changes; between changes -- every iteration of a stable agreement --
  // consecutive broadcasts share one object, so a full agreement phase
  // allocates O(changes) audience sets, not O(iterations).
  std::shared_ptr<const RecipientBits> audience_;
  int iter_ = 0;
  int grace_ = 0;
  // This phase's broadcasts for the naive merge.  During an agreement
  // round the inbox owns the payloads for the whole on_round call and seen_
  // is consumed and cleared before returning; only messages that arrive
  // *early* -- while we are still in the work phase -- outlive their inbox,
  // and those are kept alive by early_retained_ (refcount churn per message
  // was measurable at t = 1024, where an iteration stashes ~t messages).
  SeenViews seen_;
  std::vector<std::shared_ptr<const Payload>> early_retained_;
  DynBitset heard_;  // reused buffer: senders heard this iteration, plus self
  std::shared_ptr<AgreeRoundFold> fold_;  // run-shared; null = merge naively
};

}  // namespace dowork
