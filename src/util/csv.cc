#include "util/csv.h"

#include <cmath>
#include <cstdio>

namespace nimbus::util {

std::string format_num(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  // %g trims trailing zeros; 6 significant digits is enough for plots.
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace nimbus::util
