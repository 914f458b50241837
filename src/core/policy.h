// Powercap scheduling policies (paper §IV-B, §VI-B).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace ps::core {

/// Administrator-selected powercap scheduling mode (the SchedulerParameter
/// option of the SLURM implementation).
enum class Policy : std::uint8_t {
  None,  ///< powercap ignored (the paper's 100 %/None baseline)
  Shut,  ///< switch nodes off (idle the rest if needed); jobs run at fmax
  Dvfs,  ///< force lower CPU frequencies; no shutdown
  Mix,   ///< shutdown + DVFS restricted to the high range (>= 2.0 GHz)
  Idle,  ///< no shutdown, no DVFS: keep nodes idle (paper §VII-C ablation)
  Auto,  ///< let Algorithm 1's model pick the mechanism (rho decision)
};

const char* to_string(Policy policy) noexcept;

/// The policy whose to_string name equals `name`, ignoring case
/// ("mix", "SHUT", ...); nullopt for any other text.
std::optional<Policy> parse_policy(std::string_view name);

/// Which rho convention the offline algorithm uses (see apps::rho_published).
enum class RhoConvention : std::uint8_t {
  Published,  ///< reproduces the paper's Fig 5 numbers (default)
  Exact,      ///< first-principles Wdvfs vs Woff comparison
};

/// How the offline phase picks nodes to switch off.
enum class OfflineSelection : std::uint8_t {
  BonusGrouped,  ///< whole racks, then chassis, then contiguous singles
  Scattered,     ///< spread across chassis — no bonus (ablation baseline)
};

/// How the online algorithm treats powercap windows the job overlaps.
enum class AdmissionMode : std::uint8_t {
  /// Paper semantics (default): instantaneous check against the cap active
  /// *now*; a job overlapping a *future* window is clamped to that window's
  /// global "optimal CPU frequency" (the max frequency at which every
  /// not-switched-off node could compute within the cap, §IV-B). If even
  /// the policy's lowest frequency cannot satisfy the window, the job runs
  /// at that lowest frequency anyway (best effort) — the live check at
  /// window time protects the cap for new starts, and jobs admitted before
  /// the window may carry power into it (the paper's "no extreme actions"
  /// decay).
  PaperLive,
  /// Literal reading of the paper's "the job remains pending": same as
  /// PaperLive but jobs stay pending when no frequency satisfies an
  /// overlapped future window.
  PaperLiveStrict,
  /// Conservative extension: project cluster power at each overlapped
  /// window start (all-idle baseline + planned switch-offs + jobs whose
  /// walltime persists into the window + the candidate) and require it to
  /// fit. Guarantees zero cap violations ever, at the cost of idling the
  /// machine ahead of deep windows when walltimes are over-estimated.
  Projection,
};

const char* to_string(AdmissionMode mode) noexcept;

struct PowercapConfig {
  Policy policy = Policy::Shut;

  /// Uniform performance degradation at the lowest frequency relative to
  /// the highest (paper default: the literature "common value" 1.63).
  double default_degmin = 1.63;

  /// When true, jobs tagged with a measured app model (linpack/STREAM/...)
  /// use that app's degmin instead of default_degmin.
  bool use_app_degmin = true;

  /// MIX frequency floor in GHz (paper: 2.0, giving degradation 1.29).
  double mix_min_ghz = 2.0;

  RhoConvention rho = RhoConvention::Published;
  OfflineSelection selection = OfflineSelection::BonusGrouped;
  AdmissionMode admission = AdmissionMode::PaperLive;

  /// Disable the offline phase entirely (ablation: no advance switch-off
  /// reservations; MIX/SHUT degrade to online-only behaviour).
  bool offline_enabled = true;

  /// Strict switch-off reservations block any job whose (over-estimated)
  /// walltime overlaps the window, parking the reserved nodes long before
  /// it. The default permissive reservations keep pre-window utilization
  /// full and power nodes off opportunistically as jobs release them —
  /// the behaviour the paper's Fig 6/7 replays exhibit.
  bool strict_reservation_blocking = false;

  /// "Extreme actions": when a cap begins while the cluster is above it,
  /// kill the newest jobs until under the cap (paper default: false —
  /// wait for completions).
  bool kill_on_overcap = false;

  /// Audit mode for the governor's epoch-keyed admission cache: every cache
  /// hit is re-verdicted from scratch and checked against the cached value
  /// (the admission analogue of Cluster::audit_watts). Throws CheckError on
  /// divergence. Costs the full admission computation per hit — tests and
  /// debugging only.
  bool audit_admission_cache = false;

  /// Extension (the paper's §VIII future work): dynamically re-scale the
  /// frequency of *running* jobs at cap-window boundaries — down to the
  /// window's optimal frequency when it opens ("faster power decrease when
  /// a powercap period is approaching") and back up when it closes ("lower
  /// jobs' turnaround time after a powercap period is over"). Only
  /// meaningful for policies that may scale (DVFS/MIX/AUTO).
  bool dynamic_dvfs = false;
};

}  // namespace ps::core
