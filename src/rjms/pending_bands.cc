#include "rjms/pending_bands.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace ps::rjms {
namespace {

// Merge-heap order: std heaps keep the largest on top, so "less" is "runs
// after".
struct HeadAfter {
  template <class H>
  bool operator()(const H& a, const H& b) const noexcept {
    return PendingBands::runs_before(b.priced, a.priced);
  }
};

// Crossings at one instant may move in any order: bands sort on full keys.
struct CrossingAfter {
  template <class C>
  bool operator()(const C& a, const C& b) const noexcept {
    return a.at > b.at;
  }
};

}  // namespace

PendingBands::PendingBands(PriorityCalculator priority)
    : priority_(priority),
      sat_(static_cast<double>(priority.weights().age_saturation)),
      total_cores_(static_cast<double>(priority.total_cores())) {
  refresh_delta(0);
}

bool PendingBands::slot_before(const Slot& a, const Slot& b) noexcept {
  if (a.key != b.key) return a.key > b.key;
  if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
  if (a.cores != b.cores) return a.cores > b.cores;
  return a.id < b.id;
}

double PendingBands::key_of(BandKind band, sim::Time submit_time,
                            std::int64_t cores) const {
  const PriorityWeights& w = priority_.weights();
  // The size term exactly as PriorityCalculator::compute evaluates it.
  double size_term =
      w.size * std::min(1.0, static_cast<double>(cores) / total_cores_);
  if (band != kYoung) return size_term;
  return size_term - w.age * (static_cast<double>(submit_time) / sat_);
}

// delta_ bounds how far the static order may stray from the computed one.
// With u = 2^-53, M = |w_age| + |w_size| + |w_fs| and, for a young entry,
// exact age α = wait/sat and size σ = min(1, cores/total):
//
//  * compute() rounds wait/sat and cores/total (relative u each), the two
//    products and the two sums. Against E = w_age·α + w_size·σ + P, where
//    P = fl(w_fs·fs) is one double shared by all of a user's jobs, that is
//    |C - E| <= 4.01·u·M =: ε_c.
//  * The young key K = fl(fl(w_size·s) - fl(w_age·fl(submit/sat))) rounds
//    the same quotients, two products and a difference whose operands
//    reach |w_size| + span, span = |w_age·submit/sat| (it is 112,000 at
//    day 112 with w_age = 1000), so |K - S| <= 3.01·u·(|w_size| + span)
//    =: ε_k. The size key fl(w_size·s) is within 2.01·u·|w_size|.
//  * Within one band at one `now`, E_h - E_j = S_h - S_j: every young
//    entry ages by the same w_age·now/sat, early ones have α = 0 and
//    saturated ones α = 1, both exactly.
//
// So K_j < K_h - (2·ε_c + 2·ε_k) implies S_h - S_j > 2·ε_c, hence
// E_h - E_j > 2·ε_c and C_h > C_j strictly. 2·ε_c + 2·ε_k <= 14.1·u·(M +
// span); the tie-group test fl(K_h - delta) rounds once more, by at most
// 1.01·u·(M + span), and span is itself a rounded quotient. 32·u·(M +
// span), with span the largest over every inserted job, covers all of it.
void PendingBands::refresh_delta(sim::Time submit_time) {
  const PriorityWeights& w = priority_.weights();
  key_span_ = std::max(key_span_, std::abs(w.age * (static_cast<double>(submit_time) / sat_)));
  double m = std::abs(w.age) + std::abs(w.size) + std::abs(w.fair_share);
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  delta_ = 32.0 * kUnitRoundoff * (m + key_span_);
}

std::uint32_t PendingBands::user_index(std::int32_t user) {
  auto [it, added] = user_of_.try_emplace(user, static_cast<std::uint32_t>(users_.size()));
  if (added) users_.emplace_back().id = user;
  return it->second;
}

void PendingBands::place(std::uint32_t user, BandKind band, Job& job) {
  const workload::JobRequest& request = job.request;
  Slot slot{key_of(band, request.submit_time, request.requested_cores), request.submit_time,
            request.requested_cores, request.id, &job};
  std::vector<Slot>& slots = users_[user].bands[band].slots;
  slots.insert(std::upper_bound(slots.begin(), slots.end(), slot, slot_before), slot);
}

void PendingBands::push_crossing(sim::Time at, const Job& job, std::uint32_t user) {
  const workload::JobRequest& request = job.request;
  crossings_.push_back({at, request.submit_time, request.requested_cores, request.id, user});
  std::push_heap(crossings_.begin(), crossings_.end(), CrossingAfter{});
}

void PendingBands::insert(Job& job, sim::Time now) {
  PS_CHECK_MSG(!in_pass_, "pending bands: insert during a pass");
  std::uint32_t user = user_index(job.request.user);
  sim::Time submit = job.request.submit_time;
  sim::Duration saturation = priority_.weights().age_saturation;
  if (submit > now) {
    place(user, kEarly, job);
    push_crossing(submit, job, user);
  } else if (now - submit >= saturation) {
    place(user, kSaturated, job);
  } else {
    place(user, kYoung, job);
    push_crossing(submit + saturation, job, user);
  }
  User& entry = users_[user];
  if (entry.count++ == 0) {
    entry.active_pos = active_.size();
    active_.push_back(user);
  }
  ++size_;
  refresh_delta(submit);
}

Job* PendingBands::remove(User& user, BandKind band, sim::Time submit_time,
                          std::int64_t cores, JobId id) {
  Slot probe{key_of(band, submit_time, cores), submit_time, cores, id, nullptr};
  std::vector<Slot>& slots = user.bands[band].slots;
  auto it = std::lower_bound(slots.begin(), slots.end(), probe, slot_before);
  if (it == slots.end() || it->id != id) return nullptr;
  Job* job = it->job;
  slots.erase(it);
  return job;
}

void PendingBands::release(std::uint32_t user) {
  --size_;
  User& entry = users_[user];
  if (--entry.count > 0) return;
  std::uint32_t moved = active_.back();
  active_[entry.active_pos] = moved;
  users_[moved].active_pos = entry.active_pos;
  active_.pop_back();
}

void PendingBands::erase(const Job& job) {
  PS_CHECK_MSG(!in_pass_, "pending bands: erase during a pass");
  auto it = user_of_.find(job.request.user);
  PS_CHECK_MSG(it != user_of_.end(), "pending bands: unknown user");
  User& user = users_[it->second];
  const workload::JobRequest& request = job.request;
  bool removed = false;
  for (BandKind band : {kYoung, kEarly, kSaturated}) {
    if (remove(user, band, request.submit_time, request.requested_cores, request.id)) {
      removed = true;
      break;
    }
  }
  PS_CHECK_MSG(removed, "pending bands: job is not queued");
  release(it->second);
}

void PendingBands::advance(sim::Time now) {
  PS_CHECK_MSG(!in_pass_, "pending bands: advance during a pass");
  while (!crossings_.empty() && crossings_.front().at <= now) {
    std::pop_heap(crossings_.begin(), crossings_.end(), CrossingAfter{});
    Crossing crossing = crossings_.back();
    crossings_.pop_back();
    bool was_early = crossing.at == crossing.submit_time;
    Job* job = remove(users_[crossing.user], was_early ? kEarly : kYoung, crossing.submit_time,
                      crossing.cores, crossing.id);
    if (job == nullptr) continue;  // started since
    if (was_early) {
      place(crossing.user, kYoung, *job);
      push_crossing(crossing.at + priority_.weights().age_saturation, *job, crossing.user);
    } else {
      place(crossing.user, kSaturated, *job);
    }
  }
}

void PendingBands::add_run(const User& user, Band& band) {
  const std::vector<Slot>& slots = band.slots;
  std::size_t pos = band.next;
  const Slot& head = slots[pos];
  auto same_run = [&head](const Slot& slot) {
    return slot.submit_time == head.submit_time && slot.cores == head.cores;
  };
  std::size_t end = pos + 1;
  if (end < slots.size() && same_run(slots[end])) {
    auto first = slots.begin() + static_cast<std::ptrdiff_t>(end);
    end = static_cast<std::size_t>(std::partition_point(first, slots.end(), same_run) -
                                   slots.begin());
  }
  band.group.push_back({pos, end, priority_.compute(*head.job, now_, user.factor)});
  band.next = end;
}

bool PendingBands::fill(const User& user, Band& band, Priced& head) {
  const std::vector<Slot>& slots = band.slots;
  if (band.group.empty()) {
    if (band.next == slots.size()) return false;
    add_run(user, band);
  }
  double floor = slots[band.group.front().pos].key - delta_;
  while (band.next < slots.size() && slots[band.next].key >= floor) add_run(user, band);

  auto priced = [&slots](const Run& run) {
    return Priced{run.priority, slots[run.pos].submit_time, slots[run.pos].id};
  };
  band.best = 0;
  head = priced(band.group.front());
  for (std::size_t i = 1; i < band.group.size(); ++i) {
    Priced candidate = priced(band.group[i]);
    if (runs_before(candidate, head)) {
      band.best = i;
      head = candidate;
    }
  }
  return true;
}

double PendingBands::factor_of(User& user, const FairShare& fairshare) {
  if (user.usage == nullptr && user.usage_probed_at != fairshare.user_count()) {
    user.usage = fairshare.usage_slot(user.id);
    user.usage_probed_at = fairshare.user_count();
  }
  return fairshare.factor_at(user.usage);
}

void PendingBands::begin_pass(sim::Time now, const FairShare* fairshare) {
  PS_CHECK_MSG(!in_pass_, "pending bands: nested pass");
  in_pass_ = true;
  now_ = now;
  heap_.clear();
  taken_.clear();
  has_last_ = false;
  if (fairshare != priced_by_) {
    for (User& user : users_) {
      user.usage = nullptr;
      user.usage_probed_at = kNotProbed;
    }
    priced_by_ = fairshare;
  }
  for (std::uint32_t index : active_) {
    User& user = users_[index];
    user.factor = fairshare != nullptr ? factor_of(user, *fairshare) : 1.0;
    for (std::uint8_t b = 0; b < kBands; ++b) {
      Band& band = user.bands[b];
      if (band.slots.empty()) continue;
      band.next = 0;
      band.group.clear();
      Priced head;
      if (fill(user, band, head)) heap_.push_back({head, index, static_cast<BandKind>(b)});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), HeadAfter{});
}

Job* PendingBands::next() {
  PS_CHECK_MSG(in_pass_, "pending bands: next outside a pass");
  has_last_ = false;
  if (heap_.empty()) return nullptr;
  Head& top = heap_.front();
  User& user = users_[top.user];
  Band& band = user.bands[top.band];
  Run& run = band.group[band.best];
  Job* job = band.slots[run.pos].job;
  last_ = {top.user, top.band, run.pos};
  has_last_ = true;
  // The band's next job replaces it on top and sinks to its place. A lone
  // run goes on with the same price and submit time, only the id moves.
  bool more = true;
  if (++run.pos < run.end && band.group.size() == 1) {
    top.priced.id = band.slots[run.pos].id;
  } else {
    if (run.pos == run.end) {
      band.group.erase(band.group.begin() + static_cast<std::ptrdiff_t>(band.best));
    }
    more = fill(user, band, top.priced);
  }
  if (more) {
    sift_down_top();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), HeadAfter{});
    heap_.pop_back();
  }
  return job;
}

void PendingBands::sift_down_top() {
  std::size_t size = heap_.size();
  std::size_t at = 0;
  Head item = heap_[0];
  for (std::size_t child = 1; child < size; child = 2 * at + 1) {
    if (child + 1 < size && runs_before(heap_[child + 1].priced, heap_[child].priced)) ++child;
    if (!runs_before(heap_[child].priced, item.priced)) break;
    heap_[at] = heap_[child];
    at = child;
  }
  heap_[at] = item;
}

void PendingBands::take() {
  PS_CHECK_MSG(has_last_, "pending bands: take without next");
  taken_.push_back(last_);
  has_last_ = false;
}

void PendingBands::end_pass() {
  if (!in_pass_) return;
  in_pass_ = false;
  has_last_ = false;
  heap_.clear();
  // Descending positions keep the earlier ones of a band valid.
  std::sort(taken_.begin(), taken_.end(),
            [](const Taken& a, const Taken& b) { return a.pos > b.pos; });
  for (const Taken& taken : taken_) {
    std::vector<Slot>& slots = users_[taken.user].bands[taken.band].slots;
    slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(taken.pos));
    release(taken.user);
  }
  taken_.clear();
}

}  // namespace ps::rjms
