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
// the rank<->id wrapper around the embedded Protocol A; merge_views and
// drop_silent are the naive view merge.  Each variant keeps its own
// agreement timing, grace iterations and per-phase resets.  This file adds
// the broadcast agreement and AgreeRoundFold, its run-shared fast path.
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

// Views are word-packed (util/bitset.h): an agreement iteration merges up
// to t of these (once per round through a shared fold, per recipient
// without one), so the packing keeps the merges cheap at scale.
struct AgreeMsg final : Payload {
  int phase;          // work/agreement phase number, 1-based
  DynBitset s_left;   // outstanding units, indexed unit-1
  DynBitset t_alive;  // processes believed correct
  bool done;
  AgreeMsg(int ph, DynBitset s, DynBitset t, bool d)
      : phase(ph), s_left(std::move(s)), t_alive(std::move(t)), done(d) {}
};

// Figure 4 line 5: process `self`'s slice of the outstanding units `s`
// (unit u -> s[u-1]) among the processes `alive`.  Each member of `alive`
// takes ceil(|S|/|T|) consecutive outstanding units by its rank in `alive`
// (the last ranks may get fewer or none); a process outside `alive` gets
// none.  Fills `slice` and returns the slice width, ceil(|S|/max(1,|T|)).
std::int64_t work_slice(const DynBitset& s, const DynBitset& alive, int self,
                        std::vector<std::int64_t>& slice);

// The naive merge of one agreement iteration, for inboxes without an
// AgreeRoundFold View: `seen` holds the iteration's messages by sender
// (null = silent).  If a sender's view is done, adopts the lowest-id one
// into `sn`/`tn` and returns it.  Otherwise ANDs every s_left into `sn`, ORs
// every t_alive into `tn`, sets `heard` to the senders and returns null.
const AgreeMsg* merge_views(const std::vector<const AgreeMsg*>& seen, DynBitset& sn,
                            DynBitset& tn, DynBitset& heard);

// After the grace iterations: adds `self` to `heard` and drops from `u`
// every process outside it (silent => crashed); whether any was dropped.
bool drop_silent(DynBitset& u, DynBitset& heard, int self);

// The phase skeleton of both Protocol D variants: work phases, the decision
// that ends each agreement, and the embedded Protocol A after a revert.
class DPhaseCore {
 public:
  enum class Outcome { kContinue, kRevert, kTerminate };

  DPhaseCore(const DoAllConfig& cfg, int self);

  int phase() const { return phase_; }
  const DynBitset& s() const { return s_; }  // outstanding units (unit u -> s()[u-1])
  const DynBitset& t_alive() const { return t_alive_; }

  // A work-phase round at `now`; the phase's first round takes the slice
  // (lines 5-8).  Everyone spends exactly the slice width in rounds in the
  // phase (line 7) so the agreement phases stay aligned: while they last,
  // returns true with the next slice unit, if any, in `a`; then false.
  bool work_round(const Round& now, Action& a);
  Round work_wake(const Round& now) const;

  // Lines 9-13 on the agreed view (S, T) at round `now`: kTerminate when no
  // work is left or this process is not in T; kRevert when more than half
  // the phase's processes were lost (Protocol A takes the leftovers from
  // round now+1); otherwise kContinue into the next phase's work.
  Outcome finish(const DynBitset& s, const DynBitset& t, const Round& now);

  // A round after kRevert: the embedded Protocol A, run on rank-in-T ids.
  Action revert_round(const RoundContext& ctx, const InboxView& inbox);
  Round revert_wake(const Round& now) const { return revert_->next_wake(now); }

 private:
  int t_;
  int self_;
  int phase_ = 1;
  DynBitset s_;
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
// broadcast, which the recipient never hears, but that record's s_left and
// t_alive are exactly its current sn/tn (a D process in kAgree broadcast
// them last round and has not touched them since; a done broadcast ends the
// phase, so the own record is never done either), and AND/OR are
// idempotent, associative and commutative.  A phase where some sender
// broadcast twice has no View either.  Without a View the process merges
// naively, as it does with early arrivals retained, after reverting to A,
// and on envelope-mode or network-path inboxes.
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
    DynBitset s_and;    // n bits: AND of their s_left
    DynBitset t_or;     // t bits: OR of their t_alive
  };

  explicit AgreeRoundFold(const DoAllConfig& cfg) : n_(cfg.n), t_(cfg.t) {}

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
  };

  // The entry of `phase` in `round`'s summary (null if the round has no
  // broadcast of it), summarizing the round first if it is new.  Called
  // with mu_ held; entries are only added while summarizing, so a pointer
  // lasts until the next round is summarized.
  Phase* phase_of(const Round& round, const std::vector<DeliveryRecord>& ledger, int phase);

  std::int64_t n_;
  int t_;
  std::mutex mu_;  // guards the round summary below
  const std::vector<DeliveryRecord>* ledger_ = nullptr;  // summarized round
  Round round_;
  std::vector<Phase> phases_;
};

class ProtocolDProcess final : public IProcess {
 public:
  ProtocolDProcess(const DoAllConfig& cfg, int self,
                   std::shared_ptr<AgreeRoundFold> fold = nullptr);

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
    return static_cast<std::int64_t>(core_.s().size() - core_.s().count());
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
  DynBitset sn_;  // S being intersected
  // The broadcast audience (u_ minus self) as the shared immutable set the
  // ledger records alias (sim/message.h).  Rebuilt lazily whenever u_
  // changes; between changes -- every iteration of a stable agreement --
  // consecutive broadcasts share one object, so a full agreement phase
  // allocates O(changes) audience sets, not O(iterations).
  std::shared_ptr<const RecipientBits> audience_;
  int iter_ = 0;
  int grace_ = 0;
  // This phase's broadcasts, indexed by sender (null = silent); a flat
  // array instead of a map keeps the per-iteration bookkeeping O(t) with no
  // node allocation.  Raw pointers: during an agreement round the inbox owns
  // the payloads for the whole on_round call and seen_ is consumed and
  // cleared before returning; only messages that arrive *early* -- while we
  // are still in the work phase -- outlive their inbox, and those are kept
  // alive by early_retained_ (refcount churn per message was measurable at
  // t = 1024, where an iteration stashes ~t messages).
  std::vector<const AgreeMsg*> seen_;
  std::vector<std::shared_ptr<const Payload>> early_retained_;
  DynBitset heard_;  // reused buffer: senders heard this iteration, plus self
  std::shared_ptr<AgreeRoundFold> fold_;  // run-shared; null = merge naively
};

}  // namespace dowork
