#include "config/connection_program.h"

#include "util/check.h"

namespace aethereal::config {

Result<Connection> ReserveConnection(const ConnectionSpec& spec,
                                     const topology::Topology& topology,
                                     tdm::CentralizedAllocator& allocator) {
  auto request_route = topology.Route(spec.master.ni, spec.slave.ni);
  if (!request_route.ok()) return request_route.status();
  auto response_route = topology.Route(spec.slave.ni, spec.master.ni);
  if (!response_route.ok()) return response_route.status();

  Connection connection{spec, std::move(*request_route),
                        std::move(*response_route), {}, {}};
  if (spec.request.gt) {
    auto slots = allocator.Allocate(connection.request_route, spec.master,
                                    spec.request.gt_slots, spec.request.policy);
    if (!slots.ok()) return slots.status();
    connection.request_slots = std::move(*slots);
  }
  if (spec.response.gt) {
    auto slots = allocator.Allocate(connection.response_route, spec.slave,
                                    spec.response.gt_slots,
                                    spec.response.policy);
    if (!slots.ok()) {
      ReleaseConnection(connection, allocator);
      return slots.status();
    }
    connection.response_slots = std::move(*slots);
  }
  return connection;
}

void ReleaseConnection(Connection& connection,
                       tdm::CentralizedAllocator& allocator) {
  if (!connection.request_slots.empty()) {
    AETHEREAL_CHECK(allocator
                        .Free(connection.request_route, connection.spec.master,
                              connection.request_slots)
                        .ok());
    connection.request_slots.clear();
  }
  if (!connection.response_slots.empty()) {
    AETHEREAL_CHECK(allocator
                        .Free(connection.response_route, connection.spec.slave,
                              connection.response_slots)
                        .ok());
    connection.response_slots.clear();
  }
}

}  // namespace aethereal::config
