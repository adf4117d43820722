// Copyright 2026 The siot-trust Authors.
//
// A tour of the simulated experimental IoT network (§5.2): form the
// ZigBee-like network (coordinator + 5 groups x 6 devices), exchange
// application messages through the Z-Stack analogue, watch the
// fragment-packet attack stretch a trustor's radio window, and collect
// reports at the coordinator the way the paper's CP2102 host link does.
//
// Build: cmake --build build && ./build/examples/example_iot_testbed_tour

#include <cstdio>

#include "iotnet/coordinator.h"
#include "iotnet/network.h"

using namespace siot::iotnet;

int main() {
  NetworkConfig config;
  config.seed = 99;
  IoTNetwork network(config);
  std::printf("Devices: %zu (coordinator + %zu groups)\n",
              network.device_count(), config.groups);

  // 1. ZDO network formation.
  network.FormNetwork();
  std::printf("Network formed at t = %.1f ms; every device associated\n",
              static_cast<double>(network.events().now()) / kMillisecond);

  // 2. A normal task interaction: trustor (addr 1) asks an honest trustee
  //    (addr 3) for a 400-byte sensor report.
  SimTime response_at = 0;
  network.device(1).stack().OnReceive([&](const AppMessage& m) {
    if (m.type == PayloadType::kTaskResponse) {
      response_at = network.events().now();
    }
  });
  network.device(3).stack().OnReceive([&](const AppMessage& m) {
    if (m.type != PayloadType::kTaskRequest) return;
    AppMessage response;
    response.source = 3;
    response.destination = m.source;
    response.type = PayloadType::kTaskResponse;
    response.payload_bytes = 400;
    response.tag = m.tag;
    network.device(3).stack().SendMessage(response);
  });

  AppMessage request;
  request.source = 1;
  request.destination = 3;
  request.type = PayloadType::kTaskRequest;
  request.payload_bytes = 24;
  request.tag = 1;
  const SimTime start = network.events().now();
  network.device(1).stack().SendMessage(request);
  network.events().RunAll();
  std::printf("Honest 400-byte response completed in %.1f ms "
              "(%zu fragments)\n",
              static_cast<double>(response_at - start) / kMillisecond,
              network.device(3).stack().stats().aps_fragments_sent);

  // 3. The same payload under the fragment-packet attack.
  SimTime attack_response_at = 0;
  network.device(1).stack().OnReceive([&](const AppMessage& m) {
    if (m.type == PayloadType::kTaskResponse) {
      attack_response_at = network.events().now();
    }
  });
  AppMessage attack_response;
  attack_response.source = 4;  // a dishonest trustee
  attack_response.destination = 1;
  attack_response.type = PayloadType::kTaskResponse;
  attack_response.payload_bytes = 400;
  attack_response.tag = 2;
  attack_response.force_fragment_size = 8;
  attack_response.fragment_gap = 12 * kMillisecond;
  const SimTime attack_start = network.events().now();
  network.device(4).stack().SendMessage(attack_response);
  network.events().RunAll();
  std::printf("Attacked response (8-byte fragments, 12 ms gaps): %.1f ms\n",
              static_cast<double>(attack_response_at - attack_start) /
                  kMillisecond);

  // 4. Energy accounting: the trustor's radio-active time and energy.
  const SimTime elapsed = network.events().now();
  std::printf("Trustor active time: %.1f ms of %.1f ms elapsed "
              "(%.3f mJ consumed)\n",
              static_cast<double>(network.device(1).stack().active_time()) /
                  kMillisecond,
              static_cast<double>(elapsed) / kMillisecond,
              network.device(1).EnergyConsumedMillijoules(elapsed));

  // 5. Reports to the coordinator (the CP2102 host-export path).
  CoordinatorService coordinator(&network);
  for (const DeviceAddr trustor :
       network.DevicesByRole(DeviceRole::kTrustor)) {
    AppMessage report;
    report.source = trustor;
    report.destination = kCoordinatorAddr;
    report.type = PayloadType::kReport;
    report.payload_bytes = 16;
    report.tag = 7;
    report.value = static_cast<double>(trustor);
    network.device(trustor).stack().SendMessage(report);
  }
  network.events().RunAll();
  std::printf("Coordinator collected %zu reports; CSV export:\n%s",
              coordinator.reports().size(),
              coordinator.ExportCsv().c_str());
  return 0;
}
