/**
 * @file
 * Time conversion and formatting helpers.
 *
 * The library's internal units are: seconds for time, bytes for data,
 * FLOPs for compute work, bytes/second and FLOP/s for rates.
 */
#ifndef POD_COMMON_UNITS_H
#define POD_COMMON_UNITS_H

#include <string>

namespace pod {

/** Convert seconds to milliseconds. */
inline constexpr double ToMs(double seconds) { return seconds * 1e3; }

/** Format seconds as an adaptive human string ("1.23 ms"). */
std::string FormatTime(double seconds);

}  // namespace pod

#endif  // POD_COMMON_UNITS_H
