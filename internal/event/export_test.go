package event

// The external tests, which import ksim for the registrations that fill
// Default, walk the registry and render token lists.
func (r *Registry) Descs() []*Desc { return r.descs() }

var TokenString = tokenString
