/* Software prefetch for Smap.find_many's lockstep walk: ask the cache for
   the line an OCaml value points at, without waiting for it.  The value is
   never dereferenced here, so immediates (Empty) are harmless.  Compilers
   without the builtin get a no-op: the walk stays correct, only slower. */

#include <caml/mlvalues.h>

value kex_prefetch(value v)
{
#if defined(__GNUC__)
  __builtin_prefetch((const void *)v, 0, 3);
#else
  (void)v;
#endif
  return Val_unit;
}
