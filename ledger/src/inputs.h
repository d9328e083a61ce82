// Inputs shared by several workloads.
#pragma once

#include <string>

#include "sunfloor/spec/parser.h"

namespace ledger {

/// A paper benchmark with the CLI's annealed input placement.
sunfloor::DesignSpec annealed_benchmark(const std::string& name);

}  // namespace ledger
