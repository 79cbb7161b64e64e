/* Span storage for the benchmark's tracer, kept outside the OCaml heap.
   A span buffer inside the heap would grow the heap by tens of megabytes
   on the longest workload and so change how often the major GC runs,
   which would make the traced run differ from the untraced one for a
   reason unrelated to the code it measures.  Every entry point is
   noalloc: recording a span adds no minor words to the span it measures. */
#define _POSIX_C_SOURCE 199309L
#include <stdlib.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>

/* The runtime's own counter, as Gc.minor_words reads it. */
extern double caml_gc_minor_words_unboxed(value unit);

struct span {
  intnat name;
  intnat parent;
  double start, stop, words0, words1;
};

static struct span *spans = NULL;
static intnat n_spans = 0, cap = 0, current = -1;

/* CLOCK_MONOTONIC is also what Python's time.monotonic() reads on Linux,
   which lets run.py time set-up from the instant it spawned a process. */
double perfbench_now_native(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_now(value unit)
{
  return caml_copy_double(perfbench_now_native(unit));
}

value perfbench_reserve(value v_n)
{
  intnat n = Long_val(v_n);
  if (n > cap) {
    struct span *s = realloc(spans, (size_t)n * sizeof *spans);
    if (s == NULL) caml_raise_out_of_memory();
    spans = s;
    cap = n;
  }
  return Val_unit;
}

/* Returns the span's index, or -1 once the reserved capacity is used up
   (the caller reserves for the whole run, so that means a miscount). */
intnat perfbench_enter_native(intnat name)
{
  if (n_spans >= cap) return -1;
  struct span *s = &spans[n_spans];
  s->name = name;
  s->parent = current;
  s->words0 = caml_gc_minor_words_unboxed(Val_unit);
  s->start = perfbench_now_native(Val_unit);
  current = n_spans;
  return n_spans++;
}

value perfbench_enter(value v_name)
{
  return Val_long(perfbench_enter_native(Long_val(v_name)));
}

void perfbench_exit_native(intnat i)
{
  if (i < 0) return;
  spans[i].stop = perfbench_now_native(Val_unit);
  spans[i].words1 = caml_gc_minor_words_unboxed(Val_unit);
  current = spans[i].parent;
}

value perfbench_exit(value v_i)
{
  perfbench_exit_native(Long_val(v_i));
  return Val_unit;
}

/* Read-back, after the run. */

intnat perfbench_count_native(value unit)
{
  (void)unit;
  return n_spans;
}

value perfbench_count(value unit)
{
  (void)unit;
  return Val_long(n_spans);
}

intnat perfbench_name_native(intnat i) { return spans[i].name; }
intnat perfbench_parent_native(intnat i) { return spans[i].parent; }
double perfbench_start_native(intnat i) { return spans[i].start; }

double perfbench_dur_native(intnat i)
{
  return spans[i].stop - spans[i].start;
}

double perfbench_words_native(intnat i)
{
  return spans[i].words1 - spans[i].words0;
}

value perfbench_name(value i) { return Val_long(spans[Long_val(i)].name); }
value perfbench_parent(value i) { return Val_long(spans[Long_val(i)].parent); }

value perfbench_start(value i)
{
  return caml_copy_double(perfbench_start_native(Long_val(i)));
}

value perfbench_dur(value i)
{
  return caml_copy_double(perfbench_dur_native(Long_val(i)));
}

value perfbench_words(value i)
{
  return caml_copy_double(perfbench_words_native(Long_val(i)));
}
