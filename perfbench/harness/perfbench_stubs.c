/* Process accounting the OCaml Unix library does not expose.

   wait4 returns a reaped child's peak resident set and CPU time, which
   /proc can no longer show once the process has exited (campaign runs are
   short-lived processes). The subreaper flag makes workers orphaned by a
   dead balancer our children, so they can be waited for too; it is Linux
   only, like the /proc files the benchmark reads, and elsewhere setting
   it fails at run time rather than at build time. */

#define _GNU_SOURCE
#include <errno.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* wait4(pid) -> (pid, exit code or -signal, maxrss KiB, user+system CPU s).
   pid -1 waits for any child. */
CAMLprim value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  pid_t pid = Int_val(vpid);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4 failed");
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(r));
  Store_field(res, 1,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3,
              caml_copy_double((double)ru.ru_utime.tv_sec
                               + (double)ru.ru_utime.tv_usec / 1e6
                               + (double)ru.ru_stime.tv_sec
                               + (double)ru.ru_stime.tv_usec / 1e6));
  CAMLreturn(res);
}

CAMLprim value perfbench_set_subreaper(value unit)
{
  (void)unit;
#ifdef PR_SET_CHILD_SUBREAPER
  if (prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0)
    caml_failwith("prctl(PR_SET_CHILD_SUBREAPER) failed");
#else
  caml_failwith("the benchmark needs Linux (PR_SET_CHILD_SUBREAPER)");
#endif
  return Val_unit;
}
