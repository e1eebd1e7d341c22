// Table III: sensor gating at tau = 20 ms for the filtered control case —
// the broader energy model of eq. (8) including the sensor itself.  Three
// industry-grade sensors (ZED stereo camera, Navtech CTS350-X radar,
// Velodyne HDL-32e LiDAR) are evaluated at p = tau and p = 2*tau, reporting
// average gains over the run and gains within delta_max = 4*tau intervals.
//
// The schedule is sensor-independent (it depends only on p and delta_max),
// so one filtered gating run per period supplies the tallies and each
// sensor spec is evaluated analytically from them — the paper's Table III
// methodology.
#include "common.hpp"

int main() {
  using namespace seo;
  bench::print_banner(
      "table3_sensor_gating", "paper Table III",
      "filtered gating at tau=20 ms; eq. (8) sensor+model energy; sensors "
      "evaluated from the measured schedule tallies");

  const std::vector<SweepRow> rows = run_sweep(bench::grid(
      {"paper_default"},
      {{"mode", "gating"}, {"filtered", "true"}, {"obstacles", "2"}}, {}));
  const ScenarioConfig& config = rows.front().scenario;
  const ExperimentResult& r = rows.front().result;
  const PerceptionModelSpec model = resnet152_px2();

  struct SensorCase {
    const char* label;
    SensorSpec (*make)(double);
  };
  const SensorCase sensors[] = {
      {"ZED Camera", &zed_stereo_camera},
      {"Navtech Radar", &navtech_cts350x_radar},
      {"Velod. LiDAR", &velodyne_hdl32e_lidar},
  };

  TextTable table("Sensor gating at tau = 20 ms, filtered control case");
  table.set_header({"sensor", "P_meas", "P_mech", "avg gains", "4tau gains"});

  for (const auto& sc : sensors) {
    for (std::size_t i = 0; i < r.pipelines.size(); ++i) {
      const auto& pipe = r.pipelines[i];
      const SensorSpec spec = sc.make(pipe.sensor.period_s);
      const EnergyComparison avg =
          sensor_gating_energy(pipe.tally, spec, model);
      const EnergyComparison at4 =
          sensor_gating_energy_at(pipe.tally, config.deadline_cap, spec, model);
      const std::string label = std::string(sc.label) + " (p=" +
                                (pipe.delta == 1 ? "tau" : "2tau") + ")";
      table.add_row({label, fmt_double(spec.meas_power_w, 1) + " W",
                     fmt_double(spec.mech_power_w, 1) + " W",
                     fmt_percent(avg.gain(), 2), fmt_percent(at4.gain(), 2)});
    }
  }

  std::cout << table.render() << "\n";
  std::cout
      << "Paper reference (Table III): camera 37.5/8.2% avg, 75/50% @4tau; "
         "radar 34.84/7.57%,\n68.93/45.53%; lidar 32.72/6.9%, 64.82/41.91%. "
         " The 4tau column is analytic in the\nsensor specs (eq. 8) and "
         "should match the paper almost exactly; expected ordering\ncamera > "
         "radar > lidar (mechanical rails resist gating).\n";
  return 0;
}
