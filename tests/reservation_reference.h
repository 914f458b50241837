// Reference answer for "is this node reservation-blocked for a job
// spanning [from, to)?", computed the direct way: a scan over every
// reservation in the book with the shared blocks_job_span predicate and a
// linear search of its node list. The shipping code answers through
// rjms::BlockedSet; tests compare the set against this scan.
#pragma once

#include <algorithm>
#include <set>

#include "rjms/reservation.h"

namespace ps::rjms {

inline bool scanned_node_blocked(const ReservationBook& book, cluster::NodeId node,
                                 sim::Time from, sim::Time to) {
  for (const Reservation& r : book.all()) {
    if (r.blocks_job_span(from, to) &&
        std::find(r.nodes.begin(), r.nodes.end(), node) != r.nodes.end()) {
      return true;
    }
  }
  return false;
}

/// Every node some reservation blocks for [from, to), by the same scan.
inline std::set<cluster::NodeId> scanned_blocked_nodes(const ReservationBook& book,
                                                       sim::Time from, sim::Time to) {
  std::set<cluster::NodeId> blocked;
  for (const Reservation& r : book.all()) {
    if (r.blocks_job_span(from, to)) blocked.insert(r.nodes.begin(), r.nodes.end());
  }
  return blocked;
}

}  // namespace ps::rjms
