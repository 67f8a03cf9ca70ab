// Structure-of-arrays mirror of the pending queue's scoring inputs.
//
// Every input the policy kernels need (rpt, value-function terms, the
// anchor the contract measures delay from) otherwise lives scattered across
// `TaskState`/`Task`/`ValueFunction` objects — an AoS layout the compiler
// cannot vectorize across the candidate set. `ScoreColumns` keeps those
// inputs as parallel flat `double` arrays, one slot per pending task,
// maintained with the exact same push-back / swap-with-back moves as the
// scheduler's index-swap `pending_` queue, so slot i here always describes
// `pending_[i]` and `TaskState::queue_pos` doubles as the slot id. The
// scalar per-task `ScoreCache` remains the definition the kernels must
// match bit for bit (ScoreKernelMode::kOff scores through it alone).
//
// Columns are *immutable per slot* while a task sits in the queue: rpt is
// latched at enqueue (`queue_rpt`) and every value-function term is a
// constant of the bid. Only the cached policy terms (a/b/c, mirroring
// `ScoreCache`) and their `stamp_now` freshness stamps are rewritten, once
// per scoring instant.
#pragma once

#include <cstddef>
#include <vector>

#include "core/task.hpp"
#include "core/types.hpp"

namespace mbts {

/// Read-only view of the column arrays a kernel consumes. Raw pointers —
/// contiguous, no aliasing with the output span (kernels write only `out`
/// or the cache columns they are handed).
struct ScoreColumnsView {
  std::size_t n = 0;
  /// Remaining processing time latched at enqueue (`TaskState::queue_rpt`).
  const double* rpt = nullptr;
  /// rpt * width, exactly as the scalar `unit_gain` denominator computes it.
  const double* rptw = nullptr;
  /// Contract anchor: arrival + estimate(). Delay at completion c is
  /// max(c - anchor, 0), matching `Task::delay_at_completion`.
  const double* anchor = nullptr;
  /// Single-segment value-function terms (undefined meaning for piecewise
  /// slots — those are fixed up by a scalar pass, see `linear`).
  const double* max_value = nullptr;
  const double* rate = nullptr;
  /// -penalty_bound: the yield floor (-inf when unbounded).
  const double* neg_bound = nullptr;
  /// Delay at which decay stops (kInf when the function never expires).
  const double* expire = nullptr;
  /// Slot -> task, for scalar fallback lanes (piecewise fixup, bounded-mix
  /// opportunity cost).
  const Task* const* tasks = nullptr;
  /// linear[i] != 0 iff the slot's value function is single-segment, i.e.
  /// the flat-array terms above fully describe it.
  const unsigned char* linear = nullptr;
};

class ScoreColumns {
 public:
  std::size_t size() const { return rpt_.size(); }
  bool empty() const { return rpt_.empty(); }

  /// Appends a slot for `task` scored at remaining time `queue_rpt`.
  /// Mirrors `push_pending`: the new slot id is the old size().
  void push(const Task& task, double queue_rpt) {
    const ValueFunction& vf = task.value;
    rpt_.push_back(queue_rpt);
    // Same expression as the scalar unit_gain denominator; computing it at
    // enqueue instead of per score is bit-equal because the inputs are
    // frozen for the slot's lifetime.
    rptw_.push_back(queue_rpt * static_cast<double>(task.width));
    anchor_.push_back(task.arrival + task.estimate());
    max_value_.push_back(vf.max_value());
    rate_.push_back(vf.decay());
    neg_bound_.push_back(-vf.penalty_bound());
    expire_.push_back(vf.delay_to_expire());
    tasks_.push_back(&task);
    const bool linear = vf.is_linear();
    linear_.push_back(linear ? 1u : 0u);
    nonlinear_ += linear ? 0u : 1u;
    cache_a_.push_back(0.0);
    cache_b_.push_back(0.0);
    cache_c_.push_back(0.0);
    // -inf: never a valid scoring instant, so a fresh slot always misses.
    stamp_now_.push_back(-kInf);
  }

  /// Removes `slot` by swapping the last slot into its place, exactly as
  /// `erase_pending` moves `pending_.back()` into the vacated index.
  void swap_erase(std::size_t slot) {
    nonlinear_ -= linear_[slot] ? 0u : 1u;
    const std::size_t last = rpt_.size() - 1;
    if (slot != last) {
      rpt_[slot] = rpt_[last];
      rptw_[slot] = rptw_[last];
      anchor_[slot] = anchor_[last];
      max_value_[slot] = max_value_[last];
      rate_[slot] = rate_[last];
      neg_bound_[slot] = neg_bound_[last];
      expire_[slot] = expire_[last];
      tasks_[slot] = tasks_[last];
      linear_[slot] = linear_[last];
      cache_a_[slot] = cache_a_[last];
      cache_b_[slot] = cache_b_[last];
      cache_c_[slot] = cache_c_[last];
      stamp_now_[slot] = stamp_now_[last];
    }
    rpt_.pop_back();
    rptw_.pop_back();
    anchor_.pop_back();
    max_value_.pop_back();
    rate_.pop_back();
    neg_bound_.pop_back();
    expire_.pop_back();
    tasks_.pop_back();
    linear_.pop_back();
    cache_a_.pop_back();
    cache_b_.pop_back();
    cache_c_.pop_back();
    stamp_now_.pop_back();
  }

  ScoreColumnsView view() const {
    ScoreColumnsView v;
    v.n = rpt_.size();
    v.rpt = rpt_.data();
    v.rptw = rptw_.data();
    v.anchor = anchor_.data();
    v.max_value = max_value_.data();
    v.rate = rate_.data();
    v.neg_bound = neg_bound_.data();
    v.expire = expire_.data();
    v.tasks = tasks_.data();
    v.linear = linear_.data();
    return v;
  }

  /// Cached policy terms, the SoA twin of `ScoreCache{a,b,c}`.
  double* cache_a() { return cache_a_.data(); }
  double* cache_b() { return cache_b_.data(); }
  double* cache_c() { return cache_c_.data(); }
  const double* cache_a() const { return cache_a_.data(); }
  const double* cache_b() const { return cache_b_.data(); }
  const double* cache_c() const { return cache_c_.data(); }
  /// Scoring instant the cache columns were built for (-inf = never).
  double* stamp_now() { return stamp_now_.data(); }
  const double* stamp_now() const { return stamp_now_.data(); }

  bool linear(std::size_t slot) const { return linear_[slot] != 0; }
  const Task& task(std::size_t slot) const { return *tasks_[slot]; }
  double rpt(std::size_t slot) const { return rpt_[slot]; }
  /// Number of piecewise (multi-segment) slots needing the scalar fixup.
  std::size_t nonlinear_count() const { return nonlinear_; }

  void clear() {
    rpt_.clear();
    rptw_.clear();
    anchor_.clear();
    max_value_.clear();
    rate_.clear();
    neg_bound_.clear();
    expire_.clear();
    tasks_.clear();
    linear_.clear();
    cache_a_.clear();
    cache_b_.clear();
    cache_c_.clear();
    stamp_now_.clear();
    nonlinear_ = 0;
  }

 private:
  std::vector<double> rpt_;
  std::vector<double> rptw_;
  std::vector<double> anchor_;
  std::vector<double> max_value_;
  std::vector<double> rate_;
  std::vector<double> neg_bound_;
  std::vector<double> expire_;
  std::vector<const Task*> tasks_;
  std::vector<unsigned char> linear_;
  std::vector<double> cache_a_;
  std::vector<double> cache_b_;
  std::vector<double> cache_c_;
  std::vector<double> stamp_now_;
  std::size_t nonlinear_ = 0;
};

}  // namespace mbts
