package server

// The wire protocol: JSON request/response bodies for the v1
// endpoints. cmd/tbaactl marshals the same types, so client and
// server cannot disagree about field names.
//
//	POST /v1/modules                          UploadRequest  → UploadResponse
//	GET  /v1/modules                          —              → ModulesResponse
//	POST /v1/modules/{hash}/edit              EditRequest    → EditResponse
//	POST /v1/modules/{hash}/mayalias          QueryRequest   → QueryResponse
//	POST /v1/modules/{hash}/mayalias-batch    BatchRequest   → BatchResponse
//	POST /v1/modules/{hash}/countpairs        LevelRequest   → CountPairsResponse
//	GET  /metrics                             Prometheus text
//	GET  /healthz                             "ok"
//
// Errors are ErrorResponse with a matching HTTP status: 400 for a
// malformed body or unknown access path, 404 for an unknown module
// hash, 422 for a module that fails to compile (Diagnostics carries
// the frontend errors), 429 for an over-limit batch, 503 when the
// in-flight limit sheds the request, and 504 when the request timeout
// expires mid-batch.

// UploadRequest submits MiniM3 source for compilation. File is the
// name diagnostics are reported under; it does not affect the hash.
// Force skips the resident-cache fast path: the source is recompiled
// and, if its hash is already resident, atomically swapped in as the
// next generation — requests in flight finish on the generation they
// hold. (The bytes are the same, so verdicts never change; Force
// exists to drop a module's accumulated analyzer state.)
type UploadRequest struct {
	File   string `json:"file"`
	Source string `json:"source"`
	Force  bool   `json:"force,omitempty"`
}

// UploadResponse describes the now-resident module. Cached reports
// whether the hash was already resident (the upload was served from
// cache); Generation increments each time the same hash is
// re-uploaded and its compiled state swapped.
type UploadResponse struct {
	Hash       string `json:"hash"`
	File       string `json:"file"`
	Cached     bool   `json:"cached"`
	Generation uint64 `json:"generation"`
	Resident   int64  `json:"resident"`
}

// EditRequest is the "edit" upload mode: instead of re-uploading and
// recompiling the whole module, Source carries one PROCEDURE
// declaration that replaces the resident module's procedure of the
// same name. The edit is type-checked against the frozen module
// (declared type names only, signature unchanged) and every built
// analyzer re-analyzes incrementally from the one-procedure dirty set.
// An accepted edit advances the module's generation: requests in
// flight finish on the generation (and published snapshot) they
// resolved, requests arriving after the response see only edited
// verdicts. A rejected edit (422) leaves the module untouched.
type EditRequest struct {
	Source string `json:"source"`
}

// EditResponse describes an applied edit. Reanalyzed counts the
// already-built analyzer configurations that were incrementally
// rebuilt; configurations not yet built will lower the edited module
// on first use.
type EditResponse struct {
	Hash       string `json:"hash"`
	Proc       string `json:"proc"`
	Generation uint64 `json:"generation"`
	Reanalyzed int    `json:"reanalyzed"`
}

// ModulesResponse lists resident modules, most recently used first.
type ModulesResponse struct {
	Modules []ModuleInfo `json:"modules"`
}

// ModuleInfo is one resident module and its session counters.
type ModuleInfo struct {
	Hash       string `json:"hash"`
	File       string `json:"file"`
	Generation uint64 `json:"generation"`
	Queries    uint64 `json:"queries"`
	Batches    uint64 `json:"batches"`
}

// LevelRequest selects the analyzer configuration a query runs
// against. Level accepts the tbaa.ParseLevel names ("typedecl" …
// "iptyperefs"); empty means the default SMFieldTypeRefs.
type LevelRequest struct {
	Level string `json:"level,omitempty"`
	Open  bool   `json:"open,omitempty"`
}

// QueryRequest asks whether two named access paths may alias.
type QueryRequest struct {
	LevelRequest
	P string `json:"p"`
	Q string `json:"q"`
}

// QueryResponse answers one may-alias query. Generation identifies
// the module generation that produced the verdict.
type QueryResponse struct {
	MayAlias   bool   `json:"may_alias"`
	Generation uint64 `json:"generation"`
}

// BatchRequest asks for verdicts on a vector of pairs, answered
// against one consistent snapshot.
type BatchRequest struct {
	LevelRequest
	Pairs []PairJSON `json:"pairs"`
}

// PairJSON names two access paths.
type PairJSON struct {
	P string `json:"p"`
	Q string `json:"q"`
}

// VerdictJSON is one pair's answer. Error is the per-pair failure
// ("no access path …", or the context error if the batch timed out
// mid-flight); MayAlias is meaningful only when Error is empty.
type VerdictJSON struct {
	P        string `json:"p"`
	Q        string `json:"q"`
	MayAlias bool   `json:"may_alias"`
	Error    string `json:"error,omitempty"`
}

// BatchResponse carries the positional verdicts plus the generation
// and the module's session stats after the batch. Every verdict in
// one response comes from the same generation's snapshot.
type BatchResponse struct {
	Verdicts   []VerdictJSON `json:"verdicts"`
	Generation uint64        `json:"generation"`
	Stats      SessionStats  `json:"stats"`
}

// SessionStats snapshots a module's session counts: answered verdicts,
// the may-alias ones among them, and answered batches, over every
// configuration and generation of the module.
type SessionStats struct {
	Queries uint64 `json:"queries"`
	Aliased uint64 `json:"aliased"`
	Batches uint64 `json:"batches"`
}

// CountPairsResponse carries the Table 5 static pair metrics.
type CountPairsResponse struct {
	References int    `json:"references"`
	Local      int    `json:"local"`
	Global     int    `json:"global"`
	Generation uint64 `json:"generation"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error       string   `json:"error"`
	Diagnostics []string `json:"diagnostics,omitempty"`
}
