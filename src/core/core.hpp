// catalyst/core -- umbrella header for the analysis library (the paper's
// primary contribution).
#pragma once

#include "core/basis_diagnostics.hpp" // IWYU pragma: export
#include "core/campaign.hpp"     // IWYU pragma: export
#include "core/io.hpp"           // IWYU pragma: export
#include "json/json.hpp"         // IWYU pragma: export
#include "core/metrics.hpp"      // IWYU pragma: export
#include "core/noise.hpp"        // IWYU pragma: export
#include "core/noise_classify.hpp" // IWYU pragma: export
#include "core/normalize.hpp"    // IWYU pragma: export
#include "core/pipeline.hpp"     // IWYU pragma: export
#include "core/presets.hpp"      // IWYU pragma: export
#include "core/qrcp_special.hpp" // IWYU pragma: export
#include "core/report.hpp"       // IWYU pragma: export
#include "core/validate.hpp"     // IWYU pragma: export
#include "core/signatures.hpp"   // IWYU pragma: export
#include "core/truth.hpp"        // IWYU pragma: export
