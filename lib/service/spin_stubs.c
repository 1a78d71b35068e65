/* Give up the CPU for one scheduling decision, so a spinning domain
   lets a runnable domain on the same core (the one it waits for) run.
   Returns at once when nothing else is runnable there. */

#include <caml/mlvalues.h>
#ifdef _WIN32
#include <windows.h>
#else
#include <sched.h>
#endif

value topk_spin_yield(value unit)
{
  (void)unit;
#ifdef _WIN32
  SwitchToThread();
#else
  sched_yield();
#endif
  return Val_unit;
}
