/**
 * @file
 * Implementation of unit formatting helpers.
 */
#include "common/units.h"

#include <cmath>
#include <cstdio>

namespace pod {

std::string
FormatTime(double seconds)
{
    char buf[64];
    double abs = std::fabs(seconds);
    if (abs >= 1.0) {
        std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
    } else if (abs >= 1e-3) {
        std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
    } else if (abs >= 1e-6) {
        std::snprintf(buf, sizeof(buf), "%.3f us", seconds * 1e6);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3f ns", seconds * 1e9);
    }
    return std::string(buf);
}

}  // namespace pod
