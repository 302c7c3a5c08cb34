// Timing model of one server's on-path SmartNIC (Marvell LiquidIO 3) plus
// its host, and the fabric connecting them (paper sections 3 and 4.3).
//
// The model exposes the primitives Xenic's runtime is built from:
//   * NicCompute / HostCompute — occupy a NIC ARM core / host Xeon thread.
//   * NicSend — NIC-to-NIC message, with opportunistic Ethernet aggregation:
//     messages to the same destination within a poll window share one frame
//     (amortizing frame overhead bytes, per-frame port time, and per-frame
//     software pipeline costs). Disabled via Features for the Figure 9
//     ablations.
//   * HostToNic / NicToHost — PCIe crossings for the coordinator path, with
//     the same batching treatment on the PCIe descriptor queues.
//   * DmaRead / DmaWrite — the NIC's DMA engine: 8 hardware queues,
//     vectored submission, measured submission/completion latencies.
//     With async batching disabled, the issuing NIC core blocks until the
//     DMA completes (the Figure 9a "+Async DMA" ablation).
//
// Payload movement is the protocol layer's job (closures carry real data);
// this class accounts time and bandwidth only.

#ifndef SRC_NICMODEL_SMART_NIC_H_
#define SRC_NICMODEL_SMART_NIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/perf_model.h"
#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/store/types.h"

namespace xenic::nicmodel {

using store::NodeId;

struct NicFeatures {
  bool eth_aggregation = true;    // batch NIC-to-NIC messages into frames
  bool pcie_aggregation = true;   // batch host<->NIC PCIe message queues
  bool async_dma_batching = true; // vectored, non-blocking DMA submission
};

class SmartNicFabric;

class SmartNic {
 public:
  SmartNic(sim::Engine* engine, const net::PerfModel& model, SmartNicFabric* fabric, NodeId id);

  NodeId id() const { return id_; }
  NicFeatures& features() { return features_; }
  const net::PerfModel& model() const { return model_; }
  sim::Engine* engine() { return engine_; }

  // --- Compute ---
  void NicCompute(sim::Tick cost, sim::Engine::Callback done);
  void HostCompute(sim::Tick cost, sim::Engine::Callback done);

  // --- NIC-to-NIC messaging ---
  void NicSend(NodeId dst, uint32_t bytes, sim::Engine::Callback deliver_at_dst);

  // --- Host <-> NIC PCIe crossings ---
  void HostToNic(uint32_t bytes, sim::Engine::Callback deliver_at_nic);
  void NicToHost(uint32_t bytes, sim::Engine::Callback deliver_at_host);

  // --- DMA engine ---
  void DmaRead(uint64_t bytes, sim::Engine::Callback done);
  void DmaWrite(uint64_t bytes, sim::Engine::Callback done);

  // --- Introspection / Table 3 knobs ---
  sim::Resource& nic_cores() { return nic_cores_; }
  sim::Resource& host_cores() { return host_cores_; }
  sim::Resource& dma_queues() { return dma_queues_; }
  sim::Resource& dma_submit_port() { return dma_submit_port_; }
  sim::Channel& pcie_up() { return pcie_up_; }
  sim::Channel& pcie_down() { return pcie_down_; }
  sim::Channel& rx_port(size_t i) { return *rx_ports_[i]; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  uint64_t dma_ops() const { return dma_ops_; }
  uint64_t dma_bytes() const { return dma_bytes_; }
  double WireUtilization(sim::Tick window) const;
  void ResetStats();

  // Wire-facing channels, exposed so fault injectors can arm per-frame
  // drop/delay/duplication hooks (sim::Channel::set_fault_hook).
  size_t num_tx_ports() const { return tx_ports_.size(); }
  sim::Channel& tx_port(size_t i) { return *tx_ports_[i]; }

 private:
  friend class SmartNicFabric;

  struct PendingMsg {
    uint32_t bytes;
    uint64_t ctx;  // sender's transaction trace context (0 = none)
    sim::Engine::Callback deliver;
  };
  struct DstQueue {
    std::vector<PendingMsg> msgs;
    uint32_t bytes = 0;
    bool flush_scheduled = false;
  };

  void FlushEth(NodeId dst);
  void DeliverFrame(std::vector<PendingMsg> msgs);  // runs at destination
  void DmaOp(uint64_t bytes, bool is_read, sim::Engine::Callback done);

  sim::Engine* engine_;
  const net::PerfModel& model_;
  SmartNicFabric* fabric_;
  NodeId id_;
  NicFeatures features_;

  sim::Resource nic_cores_;
  sim::Resource host_cores_;
  sim::Resource dma_queues_;
  // Descriptor-fetch port of the DMA engine: one submission per request,
  // or one per 15-element vector when vectored submission is enabled.
  sim::Resource dma_submit_port_;
  std::vector<std::unique_ptr<sim::Channel>> tx_ports_;
  std::vector<std::unique_ptr<sim::Channel>> rx_ports_;
  sim::Channel pcie_up_;    // host -> NIC descriptor/message queue
  sim::Channel pcie_down_;  // NIC -> host
  size_t next_tx_port_ = 0;
  size_t next_rx_port_ = 0;

  std::vector<DstQueue> eth_queues_;  // per destination

  uint64_t frames_sent_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t wire_bytes_sent_ = 0;
  uint64_t dma_ops_ = 0;
  uint64_t dma_bytes_ = 0;
};

// Registry connecting the cluster's SmartNICs.
class SmartNicFabric {
 public:
  SmartNicFabric(sim::Engine* engine, const net::PerfModel& model, uint32_t num_nodes);

  SmartNic& node(NodeId id) { return *nics_[id]; }
  uint32_t size() const { return static_cast<uint32_t>(nics_.size()); }
  sim::Engine* engine() { return engine_; }
  const net::PerfModel& model() const { return model_; }

 private:
  sim::Engine* engine_;
  net::PerfModel model_;
  std::vector<std::unique_ptr<SmartNic>> nics_;
};

}  // namespace xenic::nicmodel

#endif  // SRC_NICMODEL_SMART_NIC_H_
