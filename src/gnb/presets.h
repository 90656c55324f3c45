// Cell presets mirroring the paper's evaluation networks (section 5.1):
//   [srsRAN/Open5GS]  band n41, TDD, 2524.95 MHz, 30 kHz SCS, 20 MHz
//   [Mosolabs/Aether] band n48, TDD, 3561.60 MHz, 30 kHz SCS, 20 MHz
//   [Amari Callbox]   band n78, TDD, 3489.42 MHz, 30 kHz SCS, 20 MHz
//   [T-Mobile cell 1] band n25, FDD, 1989.85 MHz, 15 kHz SCS, 10 MHz
//   [T-Mobile cell 2] band n71, FDD,  622.85 MHz, 15 kHz SCS, 15 MHz
#pragma once

#include <optional>
#include <string_view>

#include "nr/cell_config.h"

namespace nrs {

CellConfig srsran_cell();
CellConfig mosolab_cell();
CellConfig amarisoft_cell();
CellConfig tmobile_cell1();
CellConfig tmobile_cell2();

/// The preset a CLI flag or a coordinator's cell spec names: "srsran",
/// "mosolab", "amarisoft", "tmobile1" or "tmobile2".  nullopt for any
/// other name.
std::optional<CellConfig> cell_preset(std::string_view name);

}  // namespace nrs
