/* Monotonic nanosecond clock and the kernel's clock-tick rate: the two
   things the benchmark needs that OCaml's Unix module lacks
   (Unix.gettimeofday is wall time with microsecond resolution). */

#include <time.h>
#include <unistd.h>
#include <caml/mlvalues.h>

value kexbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

value kexbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
