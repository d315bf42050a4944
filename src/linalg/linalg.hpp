// catalyst/linalg -- umbrella header for the dense linear algebra substrate.
#pragma once

#include "linalg/blas.hpp"       // IWYU pragma: export
#include "linalg/error.hpp"      // IWYU pragma: export
#include "linalg/householder.hpp"// IWYU pragma: export
#include "linalg/lstsq.hpp"      // IWYU pragma: export
#include "linalg/matrix.hpp"     // IWYU pragma: export
#include "linalg/qr.hpp"         // IWYU pragma: export
#include "linalg/random.hpp"     // IWYU pragma: export
#include "linalg/svd.hpp"        // IWYU pragma: export
