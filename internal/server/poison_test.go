package server

// Every test in the package runs with recycled file buffers overwritten on
// release: a job, a cache entry or a forwarded delta that still aliased one
// would compute on 0xDB bytes and fail its output check.
func init() { poisonFileBufs = true }
