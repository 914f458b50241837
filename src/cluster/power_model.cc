#include "cluster/power_model.h"

#include "util/check.h"
#include "util/strings.h"

namespace ps::cluster {

PowerModel::PowerModel(Topology topology, PowerModelSpec spec)
    : topology_(topology), spec_(std::move(spec)) {
  PS_CHECK_MSG(spec_.node_down_watts >= 0.0, "DownWatts must be >= 0");
  PS_CHECK_MSG(spec_.node_idle_watts > spec_.node_down_watts,
               "IdleWatts must exceed DownWatts");
  PS_CHECK_MSG(spec_.frequencies.min().watts > spec_.node_idle_watts,
               "busy power must exceed idle power");
  PS_CHECK_MSG(spec_.chassis_infra_watts >= 0.0, "chassis infra watts >= 0");
  PS_CHECK_MSG(spec_.rack_infra_watts >= 0.0, "rack infra watts >= 0");
  if (spec_.node_boot_watts <= 0.0) spec_.node_boot_watts = spec_.node_idle_watts;
  if (spec_.node_shutdown_watts <= 0.0) spec_.node_shutdown_watts = spec_.node_idle_watts;
}

double PowerModel::node_watts(NodeState state, FreqIndex freq) const {
  switch (state) {
    case NodeState::Off: return spec_.node_down_watts;
    case NodeState::Booting: return spec_.node_boot_watts;
    case NodeState::Idle: return spec_.node_idle_watts;
    case NodeState::Busy: return spec_.frequencies.watts(freq);
    case NodeState::ShuttingDown: return spec_.node_shutdown_watts;
  }
  return 0.0;
}

double PowerModel::node_switch_off_saving() const noexcept {
  return max_watts() - down_watts();
}

double PowerModel::chassis_power_bonus() const noexcept {
  return spec_.chassis_infra_watts +
         static_cast<double>(topology_.nodes_per_chassis()) * spec_.node_down_watts;
}

double PowerModel::rack_power_bonus() const noexcept {
  return spec_.rack_infra_watts +
         static_cast<double>(topology_.chassis_per_rack()) * chassis_power_bonus();
}

double PowerModel::chassis_accumulated_saving() const noexcept {
  return static_cast<double>(topology_.nodes_per_chassis()) * node_switch_off_saving() +
         chassis_power_bonus();
}

double PowerModel::rack_accumulated_saving() const noexcept {
  return static_cast<double>(topology_.chassis_per_rack()) * chassis_accumulated_saving() +
         spec_.rack_infra_watts;
}

double PowerModel::infra_watts_all_on() const noexcept {
  return static_cast<double>(topology_.total_chassis()) * spec_.chassis_infra_watts +
         static_cast<double>(topology_.racks()) * spec_.rack_infra_watts;
}

double PowerModel::max_cluster_watts() const noexcept {
  return static_cast<double>(topology_.total_nodes()) * max_watts() + infra_watts_all_on();
}

double PowerModel::idle_cluster_watts() const noexcept {
  return static_cast<double>(topology_.total_nodes()) * idle_watts() + infra_watts_all_on();
}

std::string PowerModel::describe() const {
  std::string out = strings::format(
      "PowerModel: %d nodes (%d racks x %d chassis x %d nodes), "
      "down=%.0fW idle=%.0fW max=%.0fW, chassis infra=%.0fW rack infra=%.0fW\n",
      topology_.total_nodes(), topology_.racks(), topology_.chassis_per_rack(),
      topology_.nodes_per_chassis(), down_watts(), idle_watts(), max_watts(),
      chassis_infra_watts(), rack_infra_watts());
  out += strings::format(
      "  bonuses: node saving=%.0fW, chassis bonus=%.0fW (accum %.0fW), "
      "rack bonus=%.0fW (accum %.0fW)\n",
      node_switch_off_saving(), chassis_power_bonus(), chassis_accumulated_saving(),
      rack_power_bonus(), rack_accumulated_saving());
  out += strings::format("  cluster: max=%.0fW idle=%.0fW infra=%.0fW",
                         max_cluster_watts(), idle_cluster_watts(), infra_watts_all_on());
  return out;
}

}  // namespace ps::cluster
