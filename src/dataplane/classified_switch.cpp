#include "dataplane/classified_switch.h"

namespace contra::dataplane {

ClassifiedContraSwitch::ClassifiedContraSwitch(
    const compiler::ClassifiedCompileResult& compiled,
    const std::vector<pg::PolicyEvaluator>& evaluators, topology::NodeId self,
    ContraSwitchOptions options)
    : compiled_(&compiled) {
  instances_.reserve(compiled.classes.size());
  for (size_t cls = 0; cls < compiled.classes.size(); ++cls) {
    ContraSwitchOptions class_options = options;
    class_options.traffic_class_id = static_cast<uint32_t>(cls);
    instances_.push_back(std::make_unique<ContraSwitch>(compiled.classes[cls],
                                                        evaluators[cls], self, class_options));
  }
}

void ClassifiedContraSwitch::start(sim::Simulator& sim) {
  for (auto& instance : instances_) instance->start(sim);
}

void ClassifiedContraSwitch::handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                                           topology::LinkId in_link) {
  size_t cls = 0;
  if (packet.is_probe()) {
    cls = packet.probe.traffic_class;
  } else if (in_link == sim::kFromHost && !packet.routing.stamped) {
    const auto matched = compiled_->classified.classify(packet.tuple);
    if (!matched) {
      ++stats_.unclassified_drops;
      return;
    }
    cls = *matched;
  } else {
    cls = packet.routing.traffic_class;
  }
  if (cls >= instances_.size()) {  // corrupt/foreign class id
    ++stats_.unclassified_drops;
    return;
  }
  instances_[cls]->handle_packet(sim, std::move(packet), in_link);
}

ClassifiedNetwork install_classified_network(sim::Simulator& sim,
                                             const compiler::ClassifiedCompileResult& compiled,
                                             ContraSwitchOptions options) {
  ClassifiedNetwork network;
  network.evaluators.reserve(compiled.classes.size());
  for (const compiler::CompileResult& cls : compiled.classes) {
    network.evaluators.emplace_back(cls.graph, cls.decomposition);
  }
  for (topology::NodeId n = 0; n < sim.topo().num_nodes(); ++n) {
    auto sw = std::make_unique<ClassifiedContraSwitch>(compiled, network.evaluators, n, options);
    ClassifiedContraSwitch* raw = sw.get();
    if (sim.install_switch(n, std::move(sw))) network.switches.push_back(raw);
  }
  return network;
}

}  // namespace contra::dataplane
