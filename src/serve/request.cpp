#include "serve/request.hpp"

namespace awb::serve {

std::string
workloadKindName(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::Gcn: return "gcn";
      case WorkloadKind::GraphSage: return "graphsage";
      case WorkloadKind::Gin: return "gin";
    }
    return "?";
}

} // namespace awb::serve
